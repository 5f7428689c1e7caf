package burst

import (
	"math/big"
	"strings"
	"testing"
)

// FuzzParseSpec asserts ParseSpec's contract on arbitrary -burst input: it
// never panics, any config it accepts validates cleanly, and every byte
// size it accepts is the exact value written (digits times the suffix), so
// an out-of-range size is rejected rather than wrapped.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"cap=64M,absorb=400M,drain=100M,seal=500us",
		"cap=32M,drain=50M",
		"cap=1G",
		"cap=123,absorb=4k,drain=5g",
		"seal=0s",
		"seal=-1ms",
		"cap=0",
		"drain=",
		"cap=M",
		"cap=-1M",
		"on",
		"cap=64M,cap=1K",
		",,",
		"=",
		"cap=1=2",
		"bogus=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a config that fails Validate: %v", spec, err)
		}
		// The last assignment of each size key wins; check it exactly.
		want := map[string]*big.Int{}
		for _, kv := range strings.Split(spec, ",") {
			k, v, _ := strings.Cut(kv, "=")
			if k == "cap" || k == "absorb" || k == "drain" {
				want[k] = exactBytes(v)
			}
		}
		got := map[string]int64{"cap": cfg.CapacityBytes, "absorb": cfg.AbsorbBps, "drain": cfg.DrainBps}
		for k, w := range want {
			if w == nil || w.Cmp(big.NewInt(got[k])) != 0 {
				t.Fatalf("ParseSpec(%q): %s = %d, want %v", spec, k, got[k], w)
			}
		}
	})
}

// exactBytes is an arbitrary-precision reference for parseBytes: nil
// unless s is digits with an optional K/M/G suffix.
func exactBytes(s string) *big.Int {
	shift := uint(0)
	if s != "" {
		switch s[len(s)-1] {
		case 'K', 'k':
			shift, s = 10, s[:len(s)-1]
		case 'M', 'm':
			shift, s = 20, s[:len(s)-1]
		case 'G', 'g':
			shift, s = 30, s[:len(s)-1]
		}
	}
	if s == "" || strings.TrimLeft(s, "0123456789") != "" {
		return nil
	}
	n, _ := new(big.Int).SetString(s, 10)
	return n.Lsh(n, shift)
}
