package segment

import (
	"io"
	"os"
)

// file is the part of *os.File the store uses.
type file interface {
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Seeker
	Stat() (os.FileInfo, error)
	Sync() error
	Close() error
}

// fsys is every call that opens, creates or renames a store file. It is
// a variable so a test can fail each file operation in turn.
var fsys = struct {
	open, create func(name string) (file, error)
	rename       func(oldpath, newpath string) error
}{
	open:   func(name string) (file, error) { return asFile(os.Open(name)) },
	create: func(name string) (file, error) { return asFile(os.Create(name)) },
	rename: os.Rename,
}

// asFile keeps a failed open's result a nil interface, not a typed nil.
func asFile(f *os.File, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}
