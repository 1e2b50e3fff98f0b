module p4runpro/bench

go 1.22

require p4runpro v0.0.0

replace p4runpro => ../
