package frontend

import (
	"bufio"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"wafe/internal/xt"
)

// errLinesInjected is the read error FuzzCommandLines ends a stream with.
var errLinesInjected = errors.New("injected read error")

// cutReader returns a byte stream in reads cut by cuts: each cut byte c
// ends a read after at most 1+c bytes, and the rest comes in reads as
// large as the caller asks for. After the stream it returns end; with
// early set, end comes with the stream's last bytes.
type cutReader struct {
	data  []byte
	cuts  []byte
	end   error
	early bool
}

func (r *cutReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.end
	}
	n := min(len(p), len(r.data))
	if len(r.cuts) > 0 {
		n = min(n, 1+int(r.cuts[0]))
		r.cuts = r.cuts[1:]
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	if r.early && len(r.data) == 0 {
		return n, r.end
	}
	return n, nil
}

// linesModel is the reference model of the framing documented on
// readCommandLines: a line ends at a newline, which is stripped with
// one CR before it; a line over max bytes is cut to its first max
// bytes; at the end of input (EOF, or os.ErrClosed from wafe's own
// close) a final unterminated line is delivered and then EOF, and
// before a read error it is dropped.
func linesModel(data []byte, max int, end error) []xt.InputEvent {
	var events []xt.InputEvent
	cut := func(s string) string { return s[:min(len(s), max)] }
	rest := string(data)
	for {
		i := strings.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		events = append(events, xt.InputEvent{Line: cut(strings.TrimSuffix(rest[:i], "\r"))})
		rest = rest[i+1:]
	}
	if end != io.EOF && !errors.Is(end, os.ErrClosed) {
		return append(events, xt.InputEvent{Err: end})
	}
	if rest != "" {
		events = append(events, xt.InputEvent{Line: cut(rest)})
	}
	return append(events, xt.InputEvent{EOF: true})
}

// FuzzCommandLines feeds readCommandLines a byte stream cut into
// arbitrary reads, with an arbitrary line limit and a final EOF,
// os.ErrClosed or read error, and compares the lines and the EOF or
// error it delivers with linesModel. The smallest bufio buffer makes a
// line of more than 16 bytes arrive in several slices, so the overlong
// and mid-line paths run on short inputs. Seeds in
// testdata/fuzz/FuzzCommandLines come from the frontend tests.
func FuzzCommandLines(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cuts []byte, limit uint8, end uint8) {
		// Short streams keep a case, and its minimization, fast.
		if len(data) > 1024 {
			data = data[:1024]
		}
		ends := [...]error{io.EOF, &os.PathError{Op: "read", Path: "wafe-sock-parent", Err: os.ErrClosed}, errLinesInjected}
		r := &cutReader{data: data, cuts: cuts, end: ends[int(end&3)%len(ends)], early: end&4 != 0}
		out := make(chan xt.InputEvent)
		go readCommandLines(bufio.NewReaderSize(r, 16), int(limit), out)
		var got []xt.InputEvent
		for ev := range out {
			got = append(got, ev)
		}
		want := linesModel(data, int(limit), r.end)
		if len(got) != len(want) {
			t.Fatalf("%d events, model %d\ngot   %#v\nmodel %#v", len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("event %d: %#v, model %#v", i, got[i], want[i])
			}
		}
	})
}
