package p4

// TreeProcessFrame exposes the tree-walking oracle (tree_oracle_test.go) to
// the external differential tests in package p4_test, which drive whole
// stat4p4 programs through it.
func TreeProcessFrame(sw *Switch, tsNs uint64, inPort uint16, data []byte) []FrameOut {
	return sw.treeProcessFrame(tsNs, inPort, data)
}
