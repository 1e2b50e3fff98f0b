package experiments

import "testing"

func TestAblationRecirc(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity sweep")
	}
	rows := AblationRecirc(1800)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// R=0 must admit fewer programs than R=1 (deep programs are rejected
	// outright and shallow ones cannot spill into a second pass).
	if rows[0].Capacity >= rows[1].Capacity {
		t.Errorf("R=0 capacity %d >= R=1 %d", rows[0].Capacity, rows[1].Capacity)
	}
	// A second recirculation cannot hurt.
	if rows[2].Capacity < rows[1].Capacity {
		t.Errorf("R=2 capacity %d < R=1 %d", rows[2].Capacity, rows[1].Capacity)
	}
	t.Logf("capacity: R=0 %d, R=1 %d, R=2 %d", rows[0].Capacity, rows[1].Capacity, rows[2].Capacity)
}
