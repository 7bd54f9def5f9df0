// Package faultio provides fault-injecting io.Reader / io.Writer
// wrappers for exercising the frontend's pipe loop and backend
// supervision under failure: short reads that fragment lines across
// Read calls, readers that fail mid-stream, and writers that fail
// after a byte budget. They are deterministic by construction — faults
// trigger on byte counts, not timing — so tests using them are stable
// under -race and on loaded CI machines.
package faultio

import "io"

// FlakyReader delegates to R until N bytes have been produced, then
// every subsequent Read returns Err. A Read that straddles the budget
// is truncated to the remaining bytes, so the failure point is exact.
type FlakyReader struct {
	R   io.Reader
	N   int   // bytes to deliver before failing
	Err error // error to return once the budget is spent

	read int
}

//wafe:seam the pipe-loop and supervisor tests inject faults through it
func (f *FlakyReader) Read(p []byte) (int, error) {
	if f.read >= f.N {
		return 0, f.Err
	}
	if rest := f.N - f.read; len(p) > rest {
		p = p[:rest]
	}
	n, err := f.R.Read(p)
	f.read += n
	if err == io.EOF && f.read >= f.N {
		// The budget and the source ran out together; the injected
		// error still wins so the caller sees a failure, not EOF.
		err = f.Err
	}
	return n, err
}

// ShortReader caps every Read at Max bytes, forcing line-assembly code
// to cope with arbitrary fragmentation.
type ShortReader struct {
	R   io.Reader
	Max int
}

//wafe:seam the pipe-loop and supervisor tests inject faults through it
func (s *ShortReader) Read(p []byte) (int, error) {
	if s.Max > 0 && len(p) > s.Max {
		p = p[:s.Max]
	}
	return s.R.Read(p)
}

// ErrReader fails immediately with Err on every Read.
type ErrReader struct{ Err error }

//wafe:seam the pipe-loop and supervisor tests inject faults through it
func (e *ErrReader) Read([]byte) (int, error) { return 0, e.Err }

// FlakyWriter delegates to W until N bytes have been accepted, then
// every subsequent Write returns Err. A Write that straddles the
// budget writes the remaining bytes and reports a short write with
// Err.
type FlakyWriter struct {
	W   io.Writer
	N   int
	Err error

	written int
}

//wafe:seam the pipe-loop and supervisor tests inject faults through it
func (f *FlakyWriter) Write(p []byte) (int, error) {
	if f.written >= f.N {
		return 0, f.Err
	}
	if rest := f.N - f.written; len(p) > rest {
		n, err := f.W.Write(p[:rest])
		f.written += n
		if err == nil {
			err = f.Err
		}
		return n, err
	}
	n, err := f.W.Write(p)
	f.written += n
	return n, err
}
