package core

import "testing"

func TestExpandBackendPercent(t *testing.T) {
	vals := map[byte]string{
		'p': "4321",
		'n': "2",
		'r': "crash",
		'x': "42",
		'u': "1500",
	}
	cases := []struct{ in, want string }{
		{"set pid %p", "set pid 4321"},
		{"report %r %x after %u ms, restart %n", "report crash 42 after 1500 ms, restart 2"},
		{"100%% done", "100% done"},
		{"unknown %q stays", "unknown %q stays"},
		{"trailing %", "trailing %"},
		{"no codes", "no codes"},
	}
	for _, c := range cases {
		if got := NewPercentScript(c.in).ExpandValues(vals); got != c.want {
			t.Errorf("ExpandValues(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
