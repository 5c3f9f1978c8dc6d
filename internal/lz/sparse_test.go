package lz

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"piper/internal/workload"
)

// factorizeChunk runs one block factorizer over every block of data
// under a freshly built chunk index and returns the concatenated factor
// list, exactly as the streaming compressor would.
func factorizeChunk(data []byte, rate, blockSize int, mode StreamMode, reference bool) []Factor {
	n := len(data)
	var ix chunkIndex
	buildChunkIndex(&ix, data, rate, blockSize, make([]int32, indexScratchLen(n, rate, blockSize)))
	var scratch []int32
	if mode == ModeSparse {
		scratch = make([]int32, sparseScratchLen(blockSize, rate))
	} else {
		scratch = make([]int32, scratchLen(blockSize))
	}
	var fs []Factor
	for start := 0; start < n; start += blockSize {
		end := min(start+blockSize, n)
		switch {
		case mode == ModeSparse && reference:
			fs = refFactorizeBlockSparse(data, &ix, start, end, scratch, fs)
		case mode == ModeSparse:
			fs = factorizeBlockSparse(data, &ix, start, end, scratch, fs)
		case reference:
			fs = refFactorizeBlockDense(data, &ix, start, end, scratch, fs)
		default:
			fs = factorizeBlockDense(data, &ix, start, end, scratch, fs)
		}
	}
	return fs
}

// checkMatchesReference asserts that the fast match finder emits the
// reference walk's factor list and that the list decodes to data.
func checkMatchesReference(t *testing.T, data []byte, rate, blockSize int, mode StreamMode) {
	t.Helper()
	fast := factorizeChunk(data, rate, blockSize, mode, false)
	ref := factorizeChunk(data, rate, blockSize, mode, true)
	if i := firstDiff(fast, ref); i >= 0 {
		t.Fatalf("mode %d rate %d block %d: factor %d differs: fast %+v, reference %+v (of %d vs %d)",
			mode, rate, blockSize, i, factorAt(fast, i), factorAt(ref, i), len(fast), len(ref))
	}
	if got := Reconstruct(nil, fast); !bytes.Equal(got, data) {
		t.Fatalf("mode %d rate %d block %d: factors do not reconstruct the input", mode, rate, blockSize)
	}
}

func firstDiff(a, b []Factor) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func factorAt(fs []Factor, i int) any {
	if i < len(fs) {
		return fs[i]
	}
	return "<end>"
}

// matchFinderInputs are the differential check's chunks: seeded text with
// duplicate blocks, inputs whose matches run to the end of every block
// (where the length cap fires), inputs with almost no matches, and a
// chunk too short to carry a fingerprint.
func matchFinderInputs(t *testing.T) map[string][]byte {
	text := make([]byte, 160<<10)
	if _, err := io.ReadFull(workload.StreamReader(3, int64(len(text)), 4096, 0.4), text); err != nil {
		t.Fatal(err)
	}
	in := map[string][]byte{
		"text":   text,
		"zeros":  make([]byte, 40<<10),
		"random": randomBytes(11, 40<<10),
		"short":  []byte("abcab"),
	}
	for k := 1; k <= 9; k++ {
		pat := randomBytes(uint64(100+k), k)
		in[fmt.Sprintf("period-%d", k)] = bytes.Repeat(pat, (24<<10)/k+1)
	}
	return in
}

// TestStreamMatchFinderMatchesReference: the early-rejecting, length-
// capped chain walks must emit exactly the factors of the reference walks
// (sparse_ref_test.go) in both stream modes. The 4 KiB blocks split long
// repeats, and the odd 1531-byte blocks end mid-match and off the
// sampling grid.
func TestStreamMatchFinderMatchesReference(t *testing.T) {
	for name, data := range matchFinderInputs(t) {
		for _, mode := range []StreamMode{ModeSparse, ModeDense} {
			for _, rate := range []int{1, 8, 256} {
				for _, bs := range []int{4 << 10, 1531} {
					t.Run(fmt.Sprintf("%s/mode%d/rate%d/block%d", name, mode, rate, bs), func(t *testing.T) {
						checkMatchesReference(t, data, rate, bs, mode)
					})
				}
			}
		}
	}
}

// TestStreamGolden pins the container bytes: the constants are the FNV-1a
// 64 digests the reference match finder produced for this input, so any
// change to a factor, the encoder or the container fails here.
func TestStreamGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		o    StreamOptions
		n    int64
		want uint64
	}{
		{"sparse-rate8", StreamOptions{ChunkSize: 256 << 10, BlockSize: 32 << 10, Mode: ModeSparse}, 245611, 0xa678a74b8baac967},
		{"sparse-rate1", StreamOptions{ChunkSize: 256 << 10, BlockSize: 32 << 10, Mode: ModeSparse, SampleRate: 1}, 193849, 0xa3d5510e7af63be4},
		{"dense", StreamOptions{ChunkSize: 256 << 10, BlockSize: 32 << 10, Mode: ModeDense}, 183450, 0xc758a8d6f9bc4a31},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := fnv.New64a()
			n, err := StreamCompressSerial(h, workload.StreamReader(1, 1<<20, 4096, 0.4), c.o)
			if err != nil {
				t.Fatal(err)
			}
			if n != c.n || h.Sum64() != c.want {
				t.Fatalf("container: %d bytes, digest %#016x; want %d bytes, digest %#016x", n, h.Sum64(), c.n, c.want)
			}
		})
	}
}

// FuzzSparseFactorize: on arbitrary chunks, sample rates and block sizes,
// both fast block factorizers must equal their references and decode back
// to the input.
func FuzzSparseFactorize(f *testing.F) {
	f.Add([]byte("abcabcabcabcabcabcabcabcabcabcabcabc"), uint16(1), uint16(7))
	f.Add(bytes.Repeat([]byte{0}, 300), uint16(8), uint16(64))
	f.Add(bytes.Repeat([]byte("xyzzy-"), 200), uint16(3), uint16(100))
	f.Add(randomBytes(5, 2000), uint16(256), uint16(512))
	f.Fuzz(func(t *testing.T, data []byte, rate, blockSize uint16) {
		if len(data) == 0 || len(data) > 64<<10 {
			return
		}
		r := int(rate)%256 + 1
		// At most 16 blocks: the chunk index holds a 16 KiB head table
		// per block, and a 1-byte grain over a long input only repeats
		// the short-block case at great cost.
		bs := max(int(blockSize)%(8<<10)+1, (len(data)+15)/16)
		checkMatchesReference(t, data, r, bs, ModeSparse)
		checkMatchesReference(t, data, r, bs, ModeDense)
	})
}
