package fleet

import (
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/wire"
)

// Member is one member switch's control surface: the wire verb table,
// reached one round trip at a time with ctx first so a fleet operation's
// trace reaches the member. A member daemon's connection (DialMember) and
// an in-process server (Local) both implement it, and both run the same
// dispatch table and JSON codec, so placement, health checking,
// reconciliation and rollouts cannot tell them apart.
type Member = wire.Doer

// Local builds an in-process member: ct's wire server, never told to
// Listen, sharing ct's tracer and flight recorder.
func Local(ct *controlplane.Controller) *wire.Server {
	s := wire.NewServer(ct, nil)
	s.Tracer, s.Flight = ct.Tracing()
	return s
}

// DialMember connects to a member daemon with the client tuning the fleet
// wants: bounded per-call deadlines (a hung member must not stall probes
// or fan-outs) and reconnect-with-backoff retries for transient failures.
func DialMember(addr string) (*wire.Client, error) {
	return wire.Dial(addr,
		wire.WithDialTimeout(2*time.Second),
		wire.WithCallTimeout(5*time.Second),
		wire.WithRetry(3, 50*time.Millisecond),
	)
}
