package main

import (
	"os"
	"sync"
	"time"

	"memverify/internal/persist"
)

// countingFS wraps persist.OS and counts what the persistence layer asks
// of the disk: bytes written, fsyncs (file and directory) and the host
// time spent inside Write and Sync.
type countingFS struct {
	persist.OS
	mu     sync.Mutex
	bytes  uint64
	syncs  uint64
	ioTime time.Duration
}

type countingFile struct {
	persist.File
	fs *countingFS
}

func (c *countingFS) note(bytes int, sync bool, d time.Duration) {
	c.mu.Lock()
	c.bytes += uint64(bytes)
	if sync {
		c.syncs++
	}
	c.ioTime += d
	c.mu.Unlock()
}

// snapshot returns the counters so far.
func (c *countingFS) snapshot() (bytes, syncs uint64, ioTime time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.syncs, c.ioTime
}

// OpenFile implements persist.FS.
func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	f, err := c.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

// SyncDir implements persist.FS.
func (c *countingFS) SyncDir(name string) error {
	start := time.Now()
	err := c.OS.SyncDir(name)
	c.note(0, true, time.Since(start))
	return err
}

func (f countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.note(n, false, time.Since(start))
	return n, err
}

func (f countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.note(0, true, time.Since(start))
	return err
}
