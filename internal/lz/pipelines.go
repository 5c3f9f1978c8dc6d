package lz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"piper"
	"piper/internal/arena"
)

// Block pipeline: the input splits into fixed-size blocks, each factorized
// independently (factors never cross a block boundary, so blocks decode in
// isolation). As a pipe_while this is the classic SPS shape —
//
//	stage 0 (serial):  slice the next block off the input
//	stage 1 (parallel): suffix-array factorization of the block
//	stage 2 (serial, pipe_wait): encode the factors into the output, in order
//
// — with a parallel stage whose cost swings with the block's content,
// which is exactly the fine-grained variable-cost regime the batched
// inline fast path and its adaptive grain control target.

// DefaultBlockSize is the pipeline's default block granularity. Small
// enough that per-iteration scheduling cost is visible (the point of the
// workload), large enough that factors still find their repeats.
const DefaultBlockSize = 16 << 10

// maxBlockSize keeps ranks within int32 for the suffix sorter; it bounds
// what the decoder accepts in a stream header.
const maxBlockSize = 1 << 30

// maxFactorBlockSize caps the block size the encoders will actually use.
// The factorizer's arena reservations are derived from the block size
// (scratchLen(n)·4 and n·sizeof(Factor) bytes), so the cap is what keeps
// them per-block instead of per-input: without it, Compress(eng, 0, data,
// len(data)) on a 1 GiB input would demand a single 20 GiB region, far
// past the arena's 2^26-byte largest class. 2 MiB blocks keep the largest
// request at scratchLen(2 MiB)·4 ≈ 2^25.4 — inside the pooled classes —
// while factors at that range have long stopped improving. The clamped
// value is what lands in the stream header, so pipeline and serial
// encoders still agree bit for bit.
const maxFactorBlockSize = 2 << 20

var errCorrupt = errors.New("lz: corrupt stream")

// appendBlock encodes one block's factor list.
func appendBlock(dst []byte, factors []Factor) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(factors)))
	for _, f := range factors {
		if f.Len == 0 {
			dst = binary.AppendUvarint(dst, 0)
			dst = append(dst, f.Lit)
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(f.Len))
		dst = binary.AppendUvarint(dst, uint64(f.Dist))
	}
	return dst
}

// job carries one block through the pipeline; scratch backs the
// factorizer's int32 working arrays and fref the factor output, both
// checked out of the engine's arena in the parallel stage.
type job struct {
	block   []byte
	factors []Factor
	scratch *arena.Ref
	fref    *arena.Ref
}

// jobPool recycles job headers; each body returns its job after the
// serial encode stage.
var jobPool = sync.Pool{New: func() any { return new(job) }}

// Compress factorizes data on eng with blockSize-byte blocks (0 means
// DefaultBlockSize) and returns the encoded stream. k is the throttling
// limit (0 means the engine default).
//
// Each block's factorization runs entirely in recycled arena regions —
// one for the suffix-sort working arrays, one holding the factor list
// until the serial stage encodes it — released by defer at body end, so
// cancellation and panic unwinding cannot leak them. The steady state
// allocates nothing per block.
func Compress(eng *piper.Engine, k int, data []byte, blockSize int) []byte {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize > maxFactorBlockSize {
		blockSize = maxFactorBlockSize
	}
	// Presize for an output as large as the input plus header margin: any
	// compressible stream fits without reallocation, so the encode stage's
	// only allocation is this one up-front buffer.
	out := binary.AppendUvarint(make([]byte, 0, 64+len(data)+len(data)/16), uint64(len(data)))
	out = binary.AppendUvarint(out, uint64(blockSize))
	a := eng.Arena()
	off := 0
	piper.PipeThrottled(eng, k, func() (*job, bool) {
		if off >= len(data) {
			return nil, false
		}
		end := off + blockSize
		if end > len(data) {
			end = len(data)
		}
		j := jobPool.Get().(*job)
		j.block = data[off:end]
		off = end
		return j, true
	}, func(it *piper.Iter, j *job) {
		defer func() {
			if j.fref != nil {
				j.fref.Release()
				j.fref = nil
			}
			if j.scratch != nil {
				j.scratch.Release()
				j.scratch = nil
			}
			j.block, j.factors = nil, nil
			jobPool.Put(j)
		}()
		it.Continue(1) // parallel: factorize the block
		n := len(j.block)
		j.scratch = arenaGet(a, nil, scratchLen(n)*4)
		j.fref = arenaGet(a, nil, n*int(unsafe.Sizeof(Factor{})))
		j.factors = factorizeInto(j.block,
			arena.View[int32](j.scratch, scratchLen(n)),
			arena.View[Factor](j.fref, n)[:0])
		it.Wait(2) // serial, in order: encode
		out = appendBlock(out, j.factors)
	})
	return out
}

// CompressSerial is the single-threaded reference (the TS baseline the
// pipeline's output must match bit for bit).
func CompressSerial(data []byte, blockSize int) []byte {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize > maxFactorBlockSize {
		blockSize = maxFactorBlockSize
	}
	out := binary.AppendUvarint(nil, uint64(len(data)))
	out = binary.AppendUvarint(out, uint64(blockSize))
	for off := 0; off < len(data); {
		end := off + blockSize
		if end > len(data) {
			end = len(data)
		}
		out = appendBlock(out, Factorize(data[off:end]))
		off = end
	}
	return out
}

// Decompress decodes a stream produced by Compress or CompressSerial.
func Decompress(stream []byte) ([]byte, error) {
	total, n := binary.Uvarint(stream)
	if n <= 0 {
		return nil, errCorrupt
	}
	stream = stream[n:]
	blockSize, n := binary.Uvarint(stream)
	if n <= 0 || blockSize == 0 || blockSize > maxBlockSize {
		return nil, errCorrupt
	}
	stream = stream[n:]
	// The headers are attacker-controlled; total is only a capacity hint,
	// so clamp it rather than letting a crafted huge value panic makeslice
	// (the final length check still enforces the exact total). A factor
	// costs at least two stream bytes and emits at most blockSize output
	// bytes, so the honest output is bounded by the remaining stream size
	// times blockSize; the cheaper constant clamp below suffices for the
	// allocation hint.
	capHint := total
	if limit := uint64(len(stream)) * 8; capHint > limit {
		capHint = limit
	}
	out := make([]byte, 0, capHint)
	for uint64(len(out)) < total {
		nf, n := binary.Uvarint(stream)
		if n <= 0 || nf == 0 {
			// A block always holds at least one factor (empty blocks are
			// never emitted), so a zero count cannot make progress.
			return nil, errCorrupt
		}
		stream = stream[n:]
		blockStart := len(out)
		for f := uint64(0); f < nf; f++ {
			l, n := binary.Uvarint(stream)
			if n <= 0 {
				return nil, errCorrupt
			}
			stream = stream[n:]
			if l == 0 {
				if len(stream) == 0 {
					return nil, errCorrupt
				}
				out = append(out, stream[0])
				stream = stream[1:]
				continue
			}
			d, n := binary.Uvarint(stream)
			if n <= 0 {
				return nil, errCorrupt
			}
			stream = stream[n:]
			// Both fields are attacker-controlled uint64s: bound them
			// before any int conversion so oversized values cannot wrap
			// into plausible offsets. A copy reaches strictly backwards
			// (Dist >= 1), stays inside its block, and cannot push the
			// block past blockSize.
			produced := uint64(len(out) - blockStart)
			if d == 0 || d > produced || l > blockSize || produced+l > blockSize {
				return nil, fmt.Errorf("lz: factor escapes its block: dist %d len %d", d, l)
			}
			src := len(out) - int(d)
			for k := 0; k < int(l); k++ {
				out = append(out, out[src+k])
			}
		}
		if len(out)-blockStart > int(blockSize) {
			return nil, errCorrupt
		}
	}
	if uint64(len(out)) != total {
		return nil, errCorrupt
	}
	return out, nil
}

// Ratio reports compressed/raw size for a quick workload sanity metric.
func Ratio(raw, compressed []byte) float64 {
	if len(raw) == 0 {
		return 1
	}
	return float64(len(compressed)) / float64(len(raw))
}
