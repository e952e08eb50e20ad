// Package faultfs is the filesystem seam of the persistent run store
// (internal/experiments/store.go) plus a deterministic fault injector
// for its crash-safety tests.
//
// The store performs every filesystem operation through the FS
// interface; production code uses Disk (thin passthroughs to the os
// package) and tests substitute an Injector wrapping Disk. The
// injector matches operations against a table of Fault rules and can
// return arbitrary errors (ENOSPC, EROFS, …), cut writes short, flip
// bits in reads, or simulate a SIGKILL — after which *every* operation
// on the filesystem fails, so nothing "cleans up" the way a dying
// process could not have.
package faultfs

import (
	"errors"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// File is the subset of *os.File the run store writes and reads
// through.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Name() string
}

// FS abstracts the filesystem operations of the run store. All paths
// are ordinary os paths; implementations must be safe for concurrent
// use (the experiment grid contends on one store).
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	// OpenFile mirrors os.OpenFile; the store uses it both to read
	// records and to create lock files with O_CREATE|O_EXCL.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp mirrors os.CreateTemp (pattern semantics included).
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	// Link mirrors os.Link: it fails if newname exists, which is what
	// makes a lock's creation and its content one step.
	Link(oldname, newname string) error
	Remove(name string) error
	Stat(name string) (os.FileInfo, error)
	Chtimes(name string, atime, mtime time.Time) error
	ReadDir(dir string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
}

// Disk is the production FS: direct passthrough to the os package.
type Disk struct{}

func (Disk) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (Disk) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // typed nil inside a non-nil interface otherwise
	}
	return f, nil
}
func (Disk) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (Disk) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (Disk) Link(oldname, newname string) error   { return os.Link(oldname, newname) }
func (Disk) Remove(name string) error             { return os.Remove(name) }
func (Disk) Stat(name string) (os.FileInfo, error) {
	return os.Stat(name)
}
func (Disk) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}
func (Disk) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (Disk) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (Disk) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// Op classifies one filesystem operation for fault matching.
type Op uint8

// Operation classes. OpCreate covers both CreateTemp and any OpenFile
// call that may create (O_CREATE); OpRead covers ReadFile and
// OpenFile-for-read.
const (
	OpCreate Op = iota
	OpWrite
	OpRename
	OpRemove
	OpRead
	OpStat
	OpMkdir
	OpChtimes
	OpReadDir
	OpLink
	NumOps
)

func (o Op) String() string {
	names := [NumOps]string{"create", "write", "rename", "remove", "read", "stat", "mkdir", "chtimes", "readdir", "link"}
	if o < NumOps {
		return names[o]
	}
	return "op?"
}

// ErrKilled is what every operation returns after a Kill fault fired:
// the simulated process is dead and can neither write nor clean up.
var ErrKilled = errors.New("faultfs: process killed")

// Fault is one injection rule. A fault fires when an operation's class
// matches Op, its path contains Path (empty matches everything), and
// it is the Nth such match (1-based; 0 means first). Exactly one of
// the effect fields applies:
//
//   - Err:        the operation fails with this error.
//   - AfterBytes: OpWrite only — the matching write applies this many
//     bytes, then fails with Err (default ENOSPC-style short write).
//   - FlipBit:    OpRead only — the read succeeds but the returned
//     data has this bit (absolute offset into the file) inverted.
//   - Kill:       the operation fails with ErrKilled and the whole FS
//     goes dead, as if the process took SIGKILL mid-operation.
type Fault struct {
	Op         Op
	Path       string
	N          int
	Err        error
	AfterBytes int
	FlipBit    int64
	Kill       bool

	matches int
	fired   bool
}

// Injector wraps an inner FS and applies a fault table. The zero
// value is unusable; use NewInjector.
type Injector struct {
	inner FS

	mu     sync.Mutex
	faults []*Fault
	dead   bool
	fired  int
}

// NewInjector returns an injector over inner (usually Disk{}) with the
// given fault table.
func NewInjector(inner FS, faults ...*Fault) *Injector {
	return &Injector{inner: inner, faults: faults}
}

// Add appends a fault rule.
func (in *Injector) Add(f *Fault) {
	in.mu.Lock()
	in.faults = append(in.faults, f)
	in.mu.Unlock()
}

// Fired returns how many faults have fired so far.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Dead reports whether a Kill fault has fired.
func (in *Injector) Dead() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dead
}

// check consults the fault table for one operation. It returns the
// fault that fires (nil for a clean pass) or ErrKilled when the FS is
// already dead.
func (in *Injector) check(op Op, path string) (*Fault, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dead {
		return nil, ErrKilled
	}
	for _, f := range in.faults {
		if f.fired || f.Op != op {
			continue
		}
		if f.Path != "" && !strings.Contains(path, f.Path) {
			continue
		}
		f.matches++
		n := f.N
		if n == 0 {
			n = 1
		}
		if f.matches < n {
			continue
		}
		f.fired = true
		in.fired++
		if f.Kill {
			in.dead = true
		}
		return f, nil
	}
	return nil, nil
}

// fire converts a fired fault into the error the operation returns.
func fire(f *Fault) error {
	if f.Kill {
		return ErrKilled
	}
	if f.Err != nil {
		return f.Err
	}
	return errors.New("faultfs: injected fault")
}

func (in *Injector) MkdirAll(dir string, perm os.FileMode) error {
	if f, err := in.check(OpMkdir, dir); err != nil {
		return err
	} else if f != nil {
		return fire(f)
	}
	return in.inner.MkdirAll(dir, perm)
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	op := OpRead
	if flag&os.O_CREATE != 0 {
		op = OpCreate
	}
	if f, err := in.check(op, name); err != nil {
		return nil, err
	} else if f != nil {
		return nil, fire(f)
	}
	inner, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{in: in, f: inner}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if f, err := in.check(OpCreate, dir+"/"+pattern); err != nil {
		return nil, err
	} else if f != nil {
		return nil, fire(f)
	}
	inner, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &file{in: in, f: inner}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if f, err := in.check(OpRename, oldpath); err != nil {
		return err
	} else if f != nil {
		return fire(f)
	}
	return in.inner.Rename(oldpath, newpath)
}

// Link matches faults against newname, the path it creates.
func (in *Injector) Link(oldname, newname string) error {
	if f, err := in.check(OpLink, newname); err != nil {
		return err
	} else if f != nil {
		return fire(f)
	}
	return in.inner.Link(oldname, newname)
}

func (in *Injector) Remove(name string) error {
	if f, err := in.check(OpRemove, name); err != nil {
		return err
	} else if f != nil {
		return fire(f)
	}
	return in.inner.Remove(name)
}

func (in *Injector) Stat(name string) (os.FileInfo, error) {
	if f, err := in.check(OpStat, name); err != nil {
		return nil, err
	} else if f != nil {
		return nil, fire(f)
	}
	return in.inner.Stat(name)
}

func (in *Injector) Chtimes(name string, atime, mtime time.Time) error {
	if f, err := in.check(OpChtimes, name); err != nil {
		return err
	} else if f != nil {
		return fire(f)
	}
	return in.inner.Chtimes(name, atime, mtime)
}

func (in *Injector) ReadDir(dir string) ([]os.DirEntry, error) {
	if f, err := in.check(OpReadDir, dir); err != nil {
		return nil, err
	} else if f != nil {
		return nil, fire(f)
	}
	return in.inner.ReadDir(dir)
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	f, err := in.check(OpRead, name)
	if err != nil {
		return nil, err
	}
	if f != nil && f.FlipBit == 0 {
		return nil, fire(f)
	}
	data, rerr := in.inner.ReadFile(name)
	if rerr != nil {
		return nil, rerr
	}
	if f != nil { // FlipBit corruption: succeed with one inverted bit
		if off := f.FlipBit / 8; off < int64(len(data)) {
			data[off] ^= 1 << (f.FlipBit % 8)
		}
	}
	return data, nil
}

func (in *Injector) WriteFile(name string, data []byte, perm os.FileMode) error {
	if f, err := in.check(OpWrite, name); err != nil {
		return err
	} else if f != nil {
		if f.AfterBytes > 0 && f.AfterBytes < len(data) {
			in.inner.WriteFile(name, data[:f.AfterBytes], perm)
		}
		return fire(f)
	}
	return in.inner.WriteFile(name, data, perm)
}

// file wraps an inner File so writes and reads consult the injector.
type file struct {
	in *Injector
	f  File
}

func (w *file) Name() string { return w.f.Name() }

func (w *file) Read(p []byte) (int, error) {
	if f, err := w.in.check(OpRead, w.f.Name()); err != nil {
		return 0, err
	} else if f != nil && f.FlipBit == 0 {
		return 0, fire(f)
	}
	// Streamed reads do not support FlipBit (offset bookkeeping); the
	// store reads records via ReadFile, which does.
	return w.f.Read(p)
}

func (w *file) Write(p []byte) (int, error) {
	if f, err := w.in.check(OpWrite, w.f.Name()); err != nil {
		return 0, err
	} else if f != nil {
		n := f.AfterBytes
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			w.f.Write(p[:n])
		}
		return n, fire(f)
	}
	return w.f.Write(p)
}

func (w *file) Close() error {
	// A dead FS cannot even close cleanly (the process is gone), but
	// the underlying descriptor must not leak from the test process.
	err := w.in.deadErr()
	cerr := w.f.Close()
	if err != nil {
		return err
	}
	return cerr
}

// deadErr reports the post-Kill state without consuming fault rules.
func (in *Injector) deadErr() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dead {
		return ErrKilled
	}
	return nil
}
