package wire

// RespFrames returns the binary frames the server attached to this
// operation's response (bulk reads).
func (pc *PendingCall) RespFrames() [][]byte { return pc.resp }
