package experiments

import (
	"p4runpro/internal/baseline/activermt"
	"p4runpro/internal/baseline/flymon"
	"p4runpro/internal/programs"
)

// Table1Row reproduces one row of the paper's Table 1.
type Table1Row struct {
	Program string
	Title   string

	OursLoC      int // counted from our P4runpro source
	PaperOursLoC int
	P4LoC        int // the paper's conventional-P4 control block LoC

	UpdateMs      float64 // our modeled data plane update delay (mean)
	PaperUpdateMs float64
	OtherMs       float64 // ActiveRMT*/FlyMon** published delay, 0 if none
	OtherSystem   string
}

// Table1 deploys each of the 15 programs `repeats` times on a fresh switch
// (deploy, then revoke) and reports the mean update delay alongside LoC.
func Table1(repeats int) ([]Table1Row, error) {
	if repeats < 1 {
		repeats = 1
	}
	rows := make([]Table1Row, 0, 15)
	ct := newController(defaultOptions())
	for _, spec := range programs.All() {
		var totalMs float64
		for r := 0; r < repeats; r++ {
			reports, err := ct.Deploy(spec.DefaultSource())
			if err != nil {
				return nil, err
			}
			totalMs += reports[0].UpdateDelay.Seconds() * 1000
			if _, err := ct.Revoke(spec.Name); err != nil {
				return nil, err
			}
		}
		row := Table1Row{
			Program:      spec.Name,
			Title:        spec.Title,
			OursLoC:      spec.LoC(),
			PaperOursLoC: spec.PaperOursLoC,
			P4LoC:        spec.PaperP4LoC,

			UpdateMs:      totalMs / float64(repeats),
			PaperUpdateMs: spec.PaperUpdateMs,
			OtherSystem:   spec.OtherSystem,
		}
		switch spec.OtherSystem {
		case "ActiveRMT":
			if d, ok := activermt.UpdateDelay(spec.Name); ok {
				row.OtherMs = d.Seconds() * 1000
			}
		case "FlyMon":
			if d, ok := flymon.ReconfigDelay(flymon.TaskType(spec.Name)); ok {
				row.OtherMs = d.Seconds() * 1000
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
