package activermt

import "fmt"

// CapsuleOverhead returns the goodput fraction lost to the per-packet
// active header for a given packet size — the end-host/throughput overhead
// P4runpro avoids by assuming nothing about incoming packets.
func (s *Switch) CapsuleOverhead(pktBytes int) float64 {
	return float64(s.cfg.CapsuleBytes) / float64(pktBytes+s.cfg.CapsuleBytes)
}

// Revoke removes a program by name.
func (s *Switch) Revoke(name string) error {
	for i, a := range s.allocs {
		if a.req.Name == name {
			for j, st := range a.stages {
				s.free[st] += a.words[j]
			}
			s.allocs = append(s.allocs[:i:i], s.allocs[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("activermt: program %q not found", name)
}

// Programs returns the number of resident programs.
func (s *Switch) Programs() int { return len(s.allocs) }
