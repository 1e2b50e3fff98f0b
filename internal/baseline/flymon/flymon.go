// Package flymon implements the second comparison baseline: FlyMon (Zheng
// et al., SIGCOMM '22), which reconfigures network *measurement* tasks on
// the fly by composing flow keys and flow attributes over a fixed set of
// composable measurement units (CMUs). FlyMon supports only measurement
// tasks — exactly the scope limitation the paper contrasts with P4runpro's
// generality — so this package holds the published reconfiguration delays
// of the measurement tasks it supports. Its CMU-pool model (CMU groups and
// task attachment) is exercised only by the package's tests and lives in
// export_test.go.
package flymon

import "time"

// TaskType enumerates the measurement tasks FlyMon composes.
type TaskType string

// Supported task types (the paper's Table 1 double-starred rows).
const (
	TaskCMS   TaskType = "cms"
	TaskBF    TaskType = "bf"
	TaskSuMax TaskType = "sumax"
	TaskHLL   TaskType = "hll"
)

// reconfigDelay holds FlyMon's published task reconfiguration delays.
var reconfigDelay = map[TaskType]time.Duration{
	TaskCMS:   27460 * time.Microsecond,
	TaskBF:    32090 * time.Microsecond,
	TaskSuMax: 22880 * time.Microsecond,
	TaskHLL:   17370 * time.Microsecond,
}

// ReconfigDelay exposes the published delays (Table 1's ** column).
func ReconfigDelay(t TaskType) (time.Duration, bool) {
	d, ok := reconfigDelay[t]
	return d, ok
}
