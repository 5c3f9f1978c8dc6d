package lz

// Reference match finder: the plain chain walks, without the early-
// rejection, length-cap and hash-once cutoffs, as the oracle for the
// differential tests in sparse_test.go. Every walk here hashes the
// position itself and runs a full commonLen on each of up to
// maxChainProbe candidates; the walks in sparse.go must emit the
// identical factor list.

// refBestBefore is chunkIndex.bestBefore without the cutoffs.
func refBestBefore(ix *chunkIndex, blockStart, p, maxLen int, bestSrc, bestL int32) (int32, int32) {
	if p+fingerprintLen > len(ix.data) {
		return bestSrc, bestL
	}
	b := blockStart / ix.blockSize
	slot := ix.heads[b*indexHashSize+int(hash8(load64(ix.data, p)))]
	for probes := 0; slot >= 0 && probes < maxChainProbe; probes++ {
		q := int(slot) * ix.rate
		if l := commonLen(ix.data, q, p, maxLen); l > bestL || (l == bestL && int32(q) > bestSrc) {
			bestSrc, bestL = int32(q), l
		}
		slot = ix.prev[slot]
	}
	return bestSrc, bestL
}

// refFactorizeBlockSparse is factorizeBlockSparse without the cutoffs.
func refFactorizeBlockSparse(chunk []byte, ix *chunkIndex, start, end int, scratch []int32, dst []Factor) []Factor {
	n := len(chunk)
	rate := ix.rate
	localHead := scratch[:indexHashSize]
	for i := range localHead {
		localHead[i] = -1
	}
	firstSlot := (start + rate - 1) / rate
	localPrev := scratch[indexHashSize:]
	slots := sampledSlots(n, rate)
	nextIns := firstSlot

	insertUpTo := func(p int) {
		for nextIns < slots && nextIns*rate < p {
			q := nextIns * rate
			h := hash8(load64(chunk, q))
			localPrev[nextIns-firstSlot] = localHead[h]
			localHead[h] = int32(nextIns)
			nextIns++
		}
	}

	for p := start; p < end; {
		insertUpTo(p)
		var bestSrc, bestL int32 = -1, 0
		maxLen := end - p
		if p+fingerprintLen <= n {
			slot := localHead[hash8(load64(chunk, p))]
			for probes := 0; slot >= 0 && probes < maxChainProbe; probes++ {
				q := int(slot) * rate
				if l := commonLen(chunk, q, p, maxLen); l > bestL || (l == bestL && int32(q) > bestSrc) {
					bestSrc, bestL = int32(q), l
				}
				slot = localPrev[int(slot)-firstSlot]
			}
			if start > 0 {
				bestSrc, bestL = refBestBefore(ix, start, p, maxLen, bestSrc, bestL)
			}
		}
		if bestL >= minCopyLen {
			dst = append(dst, Factor{Dist: int32(p) - bestSrc, Len: bestL})
			p += int(bestL)
		} else {
			dst = append(dst, Factor{Lit: chunk[p]})
			p++
		}
	}
	return dst
}

// refFactorizeBlockDense is factorizeBlockDense over refBestBefore.
func refFactorizeBlockDense(chunk []byte, ix *chunkIndex, start, end int, backing []int32, dst []Factor) []Factor {
	block := chunk[start:end]
	nb := len(block)
	if nb == 0 {
		return dst
	}
	sa := backing[:nb:nb]
	isa := backing[nb : 2*nb : 2*nb]
	psv := backing[2*nb : 3*nb : 3*nb]
	nsv := backing[3*nb : 4*nb : 4*nb]
	ext := backing[4*nb : 5*nb+1 : 5*nb+1]
	suffixArrayInto(block, sa, isa, psv, nsv, ext)
	for r, p := range sa {
		isa[p] = int32(r)
	}
	ansvInto(sa, psv, nsv, ext)

	match := func(p int, q int32) int32 {
		if q < 0 {
			return 0
		}
		return commonLen(block, int(q), p, nb-p)
	}
	for pr := 0; pr < nb; {
		r := isa[pr]
		q1, q2 := psv[r], nsv[r]
		l1, l2 := match(pr, q1), match(pr, q2)
		rel, bestL := q1, l1
		if l2 > l1 || (l2 == l1 && q2 > q1) {
			rel, bestL = q2, l2
		}
		bestSrc := int32(-1)
		if bestL > 0 {
			bestSrc = int32(start) + rel
		}
		p := start + pr
		if start > 0 {
			bestSrc, bestL = refBestBefore(ix, start, p, end-p, bestSrc, bestL)
		}
		if bestL >= minCopyLen {
			dst = append(dst, Factor{Dist: int32(p) - bestSrc, Len: bestL})
			pr += int(bestL)
		} else {
			dst = append(dst, Factor{Lit: block[pr]})
			pr++
		}
	}
	return dst
}
