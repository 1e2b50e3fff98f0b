package trace

// Walk visits the tree depth-first, parents before children.
func (n *Node) Walk(fn func(depth int, nd *Node)) { n.walk(0, fn) }
