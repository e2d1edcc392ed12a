package dfs

// NodeUsed returns the bytes stored on a node.
func (fs *FS) NodeUsed(id int) int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if id < 0 || id >= len(fs.used) {
		return 0
	}
	return fs.used[id]
}
