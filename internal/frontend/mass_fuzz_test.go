package frontend

import (
	"strconv"
	"testing"

	"wafe/internal/core"
	"wafe/internal/tcl"
)

// massSeen is what one run of the armed script sees: the transfer
// variable's value and the byte count it was armed with.
type massSeen struct {
	value string
	armed int
}

// massPlan is a fuzz case for the data channel: a byte stream cut into
// deliveries, some of them before the first arming, and an action that
// sometimes re-arms with a new size.
type massPlan struct {
	data  []byte
	arm   int // first arming's byte count; 0 never arms
	pre   int // deliveries before the first arming
	cuts  []byte
	rearm uint16
}

// chunks cuts the stream into deliveries: each cut byte c is a
// delivery of 1+c bytes, and whatever is left is one last delivery.
func (p massPlan) chunks() [][]byte {
	var out [][]byte
	rest := p.data
	for _, c := range p.cuts {
		if len(rest) == 0 {
			break
		}
		n := min(1+int(c), len(rest))
		out = append(out, rest[:n])
		rest = rest[n:]
	}
	if len(rest) > 0 {
		out = append(out, rest)
	}
	return out
}

// next is the action's re-arming rule: after its k-th run it re-arms
// with the returned size, or keeps the arming when that is 0.
func (p massPlan) next(k int) int {
	if p.rearm == 0 || k%(int(p.rearm&7)+1) != 0 {
		return 0
	}
	return 1 + int(p.rearm>>3)*k%97
}

// massModel is the reference model of docs/protocol.md's mass transfer:
// bytes that arrive before an arming count toward the next transfer,
// an arming persists across transfers and completes what is already
// held, and an arming made by the action applies from the next
// transfer on.
type massModel struct {
	plan  massPlan
	held  []byte
	limit int
	seen  []massSeen
}

func (m *massModel) feed(b []byte) {
	m.held = append(m.held, b...)
	m.drain()
}

func (m *massModel) setArm(n int) {
	m.limit = n
	m.drain()
}

func (m *massModel) drain() {
	for m.limit > 0 && len(m.held) >= m.limit {
		v := string(m.held[:m.limit])
		m.held = m.held[m.limit:]
		m.seen = append(m.seen, massSeen{v, m.limit})
		if n := m.plan.next(len(m.seen)); n > 0 {
			m.limit = n
		}
	}
}

// massMetricNames are the data-channel counters FuzzMassTransfer checks:
// one read per delivery, the transfers the model completes, and their
// bytes.
var massMetricNames = [3]string{"frontend.mass_reads", "frontend.mass_transfers", "frontend.mass_bytes"}

// FuzzMassTransfer feeds a byte stream through the data channel's
// accumulation path in arbitrary deliveries, arming before, between
// or after them, and compares every value the armed script sees, and
// the bytes still held at the end, with the reference model. The
// delivery buffer is overwritten after each delivery, as the reader
// goroutine reuses its buffers, so a transfer that kept a reference to
// it would fail. Seeds in testdata/fuzz/FuzzMassTransfer mirror the
// mass-transfer tests.
func FuzzMassTransfer(f *testing.F) {
	// One interpreter serves every case; each case gets a fresh
	// Frontend, whose setCommunicationVariable replaces the last one's.
	w := core.NewTest()
	metrics := w.EnableObservability()
	var p massPlan
	var got []massSeen
	w.Interp.RegisterCommand("record", func(_ *tcl.Interp, argv []string) (string, error) {
		armed, err := strconv.Atoi(argv[2])
		if err != nil {
			return "", err
		}
		got = append(got, massSeen{argv[1], armed})
		return strconv.Itoa(p.next(len(got))), nil
	})
	if _, err := w.Eval(`proc onMass {} {
		global C A
		set r [record $C $A]
		if {$r > 0} {set A $r; setCommunicationVariable C $r onMass}
	}`); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, arm uint16, pre uint8, cuts []byte, rearm uint16) {
		// Short streams keep a case, and its minimization, fast.
		if len(data) > 256 {
			data = data[:256]
		}
		p = massPlan{data: data, arm: int(arm) % 512, pre: int(pre), cuts: cuts, rearm: rearm}
		got = nil
		term := &syncBuffer{}
		fe := New(w, nil, term)
		var before [3]int64
		for i, name := range massMetricNames {
			before[i] = metric(metrics, name)
		}
		model := &massModel{plan: p}
		arming := func() {
			if p.arm == 0 {
				return
			}
			fe.HandleAppLine("%set A " + strconv.Itoa(p.arm) + "; setCommunicationVariable C " + strconv.Itoa(p.arm) + " onMass")
			model.setArm(p.arm)
		}
		chunks := p.chunks()
		buf := make([]byte, 0, 256)
		for i, c := range chunks {
			if i == p.pre {
				arming()
			}
			buf = append(buf[:0], c...)
			fe.feedMass(buf)
			model.feed(c)
			for j := range buf {
				buf[j] = '#'
			}
		}
		if p.pre >= len(chunks) {
			arming()
		}
		if fe.EvalErrors != 0 {
			t.Fatalf("%d eval errors: %s", fe.EvalErrors, term.String())
		}
		if len(got) != len(model.seen) {
			t.Fatalf("action ran %d times, model %d\ngot   %q\nmodel %q", len(got), len(model.seen), got, model.seen)
		}
		for i := range got {
			if got[i] != model.seen[i] {
				t.Fatalf("transfer %d: saw %q armed %d, model %q armed %d", i, got[i].value, got[i].armed, model.seen[i].value, model.seen[i].armed)
			}
		}
		if held := fe.massAcc.String(); held != string(model.held) {
			t.Errorf("held %q, model %q", held, model.held)
		}
		var bytes int64
		for _, s := range model.seen {
			bytes += int64(len(s.value))
		}
		for i, want := range [3]int64{int64(len(chunks)), int64(len(model.seen)), bytes} {
			if v := metric(metrics, massMetricNames[i]); v-before[i] != want {
				t.Errorf("%s rose by %d, want %d", massMetricNames[i], v-before[i], want)
			}
		}
	})
}
