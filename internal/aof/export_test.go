package aof

import "os"

// SwapFile points f's writes at w and returns the descriptor they went to
// before, so a test can make a write or an fsync fail.
func SwapFile(f *File, w *os.File) *os.File {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.f
	f.f = w
	f.initWriter()
	return old
}
