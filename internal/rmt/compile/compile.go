// Package compile is a shim for the frozen bench/ module, which times
// compile.Recompile as a layer of every deploy. Entries are lowered when a
// table publishes its snapshot (rmt.Table.Update), so there is no plan to
// rebuild; the next benchmark PR deletes this package.
package compile

import "p4runpro/internal/rmt"

// Recompile reports the always-published state of the packet path.
func Recompile(sw *rmt.Switch) (rmt.PlanStats, bool) { return sw.CompiledPlan() }
