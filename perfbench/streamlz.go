package main

import (
	"bytes"
	"fmt"
	"io"

	"piper"
	"piper/internal/lz"
	"piper/internal/workload"
)

// stream-lz: the sparse sampled-suffix streaming compressor at P=2 over a
// seeded text stream with 40% duplicate blocks, against its own
// single-threaded reference on the same input.
const (
	lzInput    = 32 << 20
	lzChunk    = 512 << 10
	lzBlock    = 128 << 10
	lzDup      = 0.4
	lzGenBlock = 4096
)

var lzOpts = lz.StreamOptions{Mode: lz.ModeSparse, ChunkSize: lzChunk, BlockSize: lzBlock}

// timedReader serves the input to the compressor and times every Read:
// stage 0 of the pipeline is the Read call, so these are its spans.
type timedReader struct {
	r      bytes.Reader
	reads  []interval // Read calls that returned data, one per chunk
	busyNs int64
}

func (t *timedReader) Read(p []byte) (int, error) {
	s := clock()
	n, err := t.r.Read(p)
	e := clock()
	t.busyNs += e - s
	if n > 0 {
		t.reads = append(t.reads, interval{s, e})
	}
	return n, err
}

// timedWriter collects the compressed stream and times every Write:
// stage 2 of the pipeline is the Write calls.
type timedWriter struct {
	buf    bytes.Buffer
	writes []interval
	busyNs int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	s := clock()
	n, err := t.buf.Write(p)
	e := clock()
	t.busyNs += e - s
	t.writes = append(t.writes, interval{s, e})
	return n, err
}

// lzRunner compresses the run's input again and again through one
// reader and writer, whose buffers are reused so a pass leaves no
// garbage of the benchmark's own, and checks every output against the
// reference.
type lzRunner struct {
	in    []byte
	ref   []byte // the first output; every later one must equal it
	r     timedReader
	w     timedWriter
	stats lz.StreamStats
}

// pass compresses the input through eng, or serially when eng is nil,
// checks the output, and returns the pass's interval.
func (l *lzRunner) pass(o *outcome, eng *piper.Engine, what string) interval {
	l.r.r.Reset(l.in)
	l.r.reads, l.r.busyNs = l.r.reads[:0], 0
	l.w.buf.Reset()
	l.w.writes, l.w.busyNs = l.w.writes[:0], 0
	opts := lzOpts
	opts.Stats = &l.stats
	start := clock()
	var err error
	if eng == nil {
		_, err = lz.StreamCompressSerial(&l.w, &l.r, opts)
	} else {
		_, err = lz.StreamCompress(eng, &l.w, &l.r, opts)
	}
	iv := interval{start, clock()}
	o.attempted++
	switch got := l.w.buf.Bytes(); {
	case err != nil:
		o.fail("%s: %v", what, err)
	case l.ref == nil:
		l.ref = append([]byte(nil), got...)
	case !bytes.Equal(got, l.ref):
		o.fail("%s: output differs from StreamCompressSerial's", what)
	}
	return iv
}

// roundTrip checks that the reference decompresses to the input.
func (l *lzRunner) roundTrip(o *outcome) {
	o.attempted++
	var out bytes.Buffer
	if _, err := lz.StreamDecompress(&out, bytes.NewReader(l.ref)); err != nil {
		o.fail("StreamDecompress: %v", err)
	} else if !bytes.Equal(out.Bytes(), l.in) {
		o.fail("StreamDecompress did not give back the input")
	}
}

func runStreamLZ(cfg config, o *outcome) {
	var l *lzRunner
	in := make([]byte, lzInput) // each set-up regenerates the input into it
	eng := setupRepeated(o, func() *piper.Engine {
		if _, err := io.ReadFull(workload.StreamReader(cfg.seed, lzInput, lzGenBlock, lzDup), in); err != nil {
			o.fail("input generation: %v", err)
		}
		l = &lzRunner{in: in}
		eng := piper.NewEngine(piper.Workers(2))
		l.pass(o, eng, "warm-up StreamCompress")
		return eng
	})
	defer eng.Close()

	if cfg.traced {
		runStreamLZTraced(cfg, o, eng, l)
		return
	}
	var serial, par []int64
	until := clock() + int64(cfg.budget(1))
	for clock() < until {
		iv := l.pass(o, nil, "StreamCompressSerial")
		serial = append(serial, iv.end-iv.start)
		iv = l.pass(o, eng, "StreamCompress")
		par = append(par, iv.end-iv.start)
	}
	l.roundTrip(o)
	checkQuiescent(eng, o)

	note := fmt.Sprintf("time to compress the %d MiB input, one sample per pass", lzInput>>20)
	setLatencyNs(o, "lo", "", serial, note+", StreamCompressSerial")
	setLatencyNs(o, "hi", "", par, note+", StreamCompress at P=2")
	ser, p2 := medianNs(serial), medianNs(par)
	o.set("rate", float64(lzInput)/1e6/(p2/1e9), "1/s", int64(len(par)), "input MB per second at P=2, median pass")
	o.set("speedup", ser/p2, "x", int64(len(par)), "median StreamCompressSerial pass / median P=2 pass")
	o.also("rate", "lz.mb_per_s")
	o.also("speedup", "lz.speedup")
}

func runStreamLZTraced(cfg config, o *outcome, eng *piper.Engine, l *lzRunner) {
	var probe, traced []int64
	probeUntil := clock() + int64(cfg.budget(0.4))
	for clock() < probeUntil {
		iv := l.pass(o, eng, "StreamCompress")
		probe = append(probe, iv.end-iv.start)
	}
	var log spanLog
	var readNs, writeNs, chunks, raw, compressed, peakLive, selfNs int64
	before := eng.Stats()
	until := clock() + int64(cfg.budget(0.6))
	for id := int64(0); clock() < until; id++ {
		iv := l.pass(o, eng, "StreamCompress")
		traced = append(traced, iv.end-iv.start)
		spans := []span{{id, "compress", "", iv.start, iv.end}}
		for _, r := range l.r.reads {
			spans = append(spans, span{id, "read", "compress", r.start, r.end})
		}
		for _, w := range l.w.writes {
			spans = append(spans, span{id, "write", "compress", w.start, w.end})
		}
		log.add(spans...)
		selfNs += selfTime(iv, append(append([]interval(nil), l.r.reads...), l.w.writes...))
		readNs, writeNs = readNs+l.r.busyNs, writeNs+l.w.busyNs
		st := l.stats
		chunks, raw, compressed = chunks+st.Chunks, raw+st.RawBytes, compressed+st.CompressedBytes
		peakLive = max(peakLive, st.PeakLiveArenaBytes)
	}
	s := checkQuiescent(eng, o)
	setEngineLayers(o, statsDelta(before, s))

	var rep piper.PipelineReport
	o.attempted++
	prof := lzOpts
	prof.Profile = &rep
	var out bytes.Buffer
	if _, err := lz.StreamCompress(eng, &out, bytes.NewReader(l.in), prof); err != nil {
		o.fail("profiled StreamCompress: %v", err)
	}
	checkQuiescent(eng, o)
	l.roundTrip(o)

	n := int64(len(traced))
	perPass := func(ns int64) float64 { return float64(ns) / 1e6 / float64(n) }
	o.set("lz.read_ms", perPass(readNs), "ms", n, "time inside the input Reader (stage 0) per pass")
	o.set("lz.write_ms", perPass(writeNs), "ms", n, "time inside the output Writer (stage 2) per pass")
	o.set("lz.chunks", float64(chunks)/float64(n), "count", n, "chunks per pass")
	o.set("lz.ratio", float64(raw)/float64(max(compressed, 1)), "ratio", compressed, "input bytes / compressed bytes")
	o.set("arena.peak_live_mb", float64(peakLive)/1e6, "MB", n, "high-water arena bytes checked out (lz.StreamStats)")
	o.set("profile.parallelism", rep.Parallelism(), "ratio", rep.Iterations, "T1/Tinf of the outer pipeline (StreamOptions.Profile)")
	o.say("trace: compress self time %.2f ms per pass outside Read and Write", perPass(selfNs))
	setZero(o, "the stage calls are inside lz, where the benchmark cannot time them", "stage.wait_ns_per_iter", "forkjoin.sync_ns_per_iter")
	setZero(o, notExercised, requestOnly...)
	setZero(o, notExercised, admissionOnly...)
	setOverhead(o, probe, traced, "pass time")
	log.write(cfg, o)
}
