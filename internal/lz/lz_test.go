package lz

import (
	"bytes"
	"testing"

	"piper"
	"piper/internal/workload"
)

// TestFactorizeMatchesNaive: the suffix-array factorizer must produce the
// same greedy phrase boundaries (position, length) as the quadratic
// reference. Distances may differ when several previous occurrences tie
// on length, so the comparison is on boundaries plus a round-trip check.
func TestFactorizeMatchesNaive(t *testing.T) {
	rng := workload.NewRNG(42)
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("aaaaaaa"),
		[]byte("abababab"),
		[]byte("abracadabra"),
		[]byte("mississippi"),
		bytes.Repeat([]byte("abc"), 40),
	}
	for c := 0; c < 30; c++ {
		n := 1 + rng.Intn(200)
		alpha := 1 + rng.Intn(4)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(alpha))
		}
		cases = append(cases, b)
	}
	for ci, data := range cases {
		got := Factorize(data)
		want := naiveFactorize(data)
		if len(got) != len(want) {
			t.Fatalf("case %d (%q): %d factors, naive %d", ci, truncate(data), len(got), len(want))
		}
		for k := range got {
			if got[k].Len != want[k].Len || (got[k].Len == 0 && got[k].Lit != want[k].Lit) {
				t.Fatalf("case %d (%q) factor %d: got %+v, naive %+v", ci, truncate(data), k, got[k], want[k])
			}
		}
		if rec := Reconstruct(nil, got); !bytes.Equal(rec, data) {
			t.Fatalf("case %d: reconstruction mismatch", ci)
		}
	}
}

// TestFactorDistancesValid: every copy factor must point inside the
// already-produced prefix.
func TestFactorDistancesValid(t *testing.T) {
	data := workload.TextStream(7, 1<<15, 1024, 0.4)
	pos := int32(0)
	for _, f := range Factorize(data) {
		if f.Len == 0 {
			pos++
			continue
		}
		if f.Dist < 1 || f.Dist > pos {
			t.Fatalf("factor at %d has invalid distance %d", pos, f.Dist)
		}
		pos += f.Len
	}
	if int(pos) != len(data) {
		t.Fatalf("factors cover %d bytes, want %d", pos, len(data))
	}
}

// TestRoundTripSerial: encode/decode round trip through the serial
// compressor across block sizes and data shapes.
func TestRoundTripSerial(t *testing.T) {
	inputs := map[string][]byte{
		"empty":      nil,
		"tiny":       []byte("x"),
		"runs":       bytes.Repeat([]byte{0xaa}, 100_000),
		"text":       workload.TextStream(3, 1<<18, 4096, 0.35),
		"entropic":   randomBytes(11, 1<<16),
		"odd-sizing": workload.TextStream(9, (1<<16)+12345, 512, 0.5),
	}
	for name, data := range inputs {
		for _, bs := range []int{0, 1 << 10, 64 << 10} {
			enc := CompressSerial(data, bs)
			dec, err := Decompress(enc)
			if err != nil {
				t.Fatalf("%s/bs=%d: decompress: %v", name, bs, err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%s/bs=%d: round trip mismatch (%d vs %d bytes)", name, bs, len(dec), len(data))
			}
		}
	}
}

// TestPipelineMatchesSerial: the piper pipeline must produce the serial
// encoder's stream bit for bit — stage 2's pipe_wait makes the emission
// order serial — across engine configurations including the batching
// extremes.
func TestPipelineMatchesSerial(t *testing.T) {
	data := workload.TextStream(1234, 1<<19, 4096, 0.35)
	want := CompressSerial(data, 8<<10)
	cfgs := []struct {
		name string
		opts []piper.Option
	}{
		{"P1-adaptive", []piper.Option{piper.Workers(1)}},
		{"P4-adaptive", []piper.Option{piper.Workers(4)}},
		{"P4-grain1", []piper.Option{piper.Workers(4), piper.Grain(1)}},
		{"P4-grain4", []piper.Option{piper.Workers(4), piper.Grain(4)}},
	}
	for _, cfg := range cfgs {
		eng := piper.NewEngine(cfg.opts...)
		got := Compress(eng, 0, data, 8<<10)
		eng.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: pipeline stream differs from serial encoder", cfg.name)
		}
	}
	dec, err := Decompress(want)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("round trip: err=%v equal=%v", err, bytes.Equal(dec, data))
	}
	if r := Ratio(data, want); r >= 1.0 {
		t.Logf("note: ratio %.3f >= 1 on this input", r)
	}
}

// TestDecompressRejectsCorrupt: truncations and bit flips must error, not
// panic or hang.
func TestDecompressRejectsCorrupt(t *testing.T) {
	data := workload.TextStream(5, 1<<14, 1024, 0.3)
	enc := CompressSerial(data, 4<<10)
	for cut := 0; cut < len(enc); cut += 97 {
		if _, err := Decompress(enc[:cut]); err == nil && cut < len(enc) {
			// A clean prefix may decode only if it happens to be a full
			// stream; with a fixed total length it cannot.
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	flip := append([]byte(nil), enc...)
	flip[len(flip)/3] ^= 0x40
	if dec, err := Decompress(flip); err == nil && bytes.Equal(dec, data) {
		t.Fatal("bit flip produced an identical decode")
	}

	for name, s := range craftedBlockStreams() {
		if _, err := Decompress(s); err == nil {
			t.Errorf("crafted stream %q decoded without error", name)
		}
	}
}

// craftedBlockStreams are adversarial block containers: every field is
// attacker-controlled and must produce errors, not panics or runaway
// allocations.
func craftedBlockStreams() map[string][]byte {
	return map[string][]byte{
		"dist-zero":      {4, 16, 1, 2, 0},                                                              // copy factor with Dist=0
		"dist-huge":      {4, 16, 1, 2, 255, 255, 3},                                                    // Dist far beyond produced output
		"len-huge":       {4, 16, 1, 255, 255, 3, 1},                                                    // Len beyond the block bound
		"zero-factors":   {4, 16, 0},                                                                    // empty block can't make progress
		"huge-total":     append([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 1}, 16, 1, 0, 'x'), // total=2^63+
		"huge-blocksize": {4, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1},
	}
}

// FuzzDecompress: arbitrary bytes must decode or fail cleanly, never
// panic; and the same bytes taken as raw input must round-trip through
// CompressSerial byte-exactly. Containers declaring more than 1 MiB of
// output are not decoded: a few valid factors may legitimately expand to
// the declared total, which would only slow the fuzzer down.
func FuzzDecompress(f *testing.F) {
	enc := CompressSerial(workload.TextStream(5, 2<<10, 1024, 0.3), 512)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	for _, s := range craftedBlockStreams() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if total, n := uvarint(in); n > 0 && total <= 1<<20 {
			Decompress(in)
		}
		dec, err := Decompress(CompressSerial(in, 1+len(in)%1024))
		if err != nil || !bytes.Equal(dec, in) {
			t.Fatalf("round trip of %d bytes: err=%v, equal=%v", len(in), err, bytes.Equal(dec, in))
		}
	})
}

func truncate(b []byte) []byte {
	if len(b) > 24 {
		return b[:24]
	}
	return b
}

func randomBytes(seed uint64, n int) []byte {
	b := make([]byte, n)
	workload.NewRNG(seed).Bytes(b)
	return b
}

func BenchmarkFactorize64K(b *testing.B) {
	data := workload.TextStream(77, 64<<10, 4096, 0.35)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Factorize(data)
	}
}
