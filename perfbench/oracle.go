package main

import (
	"fmt"
	"slices"

	"ewh/internal/join"
)

// The oracle is a sorted-array counter written here, independent of the
// program's join engines: every op's result is checked against it, and a
// mismatch fails the run.

// bandCount counts the pairs (a, b) with a in probe, b in sorted and
// |a-b| <= beta, by two binary searches per probe key. Both slices must be
// ascending, so each search gallops forward from the previous one's answer;
// beta 0 counts equality matches.
func bandCount(probe, sorted []join.Key, beta int64) int64 {
	var n int64
	lo, hi := 0, 0
	for _, a := range probe {
		lo = lowerBound(sorted, lo, a-beta)
		hi = lowerBound(sorted, max(hi, lo), a+beta+1)
		n += int64(hi - lo)
	}
	return n
}

// lowerBound returns the first index i >= from with sorted[i] >= x, given
// that every key before from is below x: it gallops from from to bracket the
// answer, then binary-searches the bracket.
func lowerBound(sorted []join.Key, from int, x join.Key) int {
	hi, step := from, 1
	for hi < len(sorted) && sorted[hi] < x {
		from = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, len(sorted))
	i, _ := slices.BinarySearch(sorted[from:hi], x)
	return from + i
}

// rangeCount returns how many keys of sorted lie in [lo, hi], by two binary
// searches.
func rangeCount(sorted []join.Key, lo, hi join.Key) int {
	i, _ := slices.BinarySearch(sorted, lo)
	j, _ := slices.BinarySearch(sorted, hi+1)
	return j - i
}

// chainCount counts R1 ⋈band(beta) Mid.A ⋈equi R3 as the sum over Mid rows
// of band-count(R1, A) × equal-count(R3, B); it also returns the stage-1
// match count, the sum of the first factor. r1Sorted and r3Sorted must be
// ascending.
func chainCount(r1Sorted, midA, midB, r3Sorted []join.Key, beta int64) (out, stage1 int64) {
	for i, a := range midA {
		c1 := int64(rangeCount(r1Sorted, a-beta, a+beta))
		if c1 == 0 {
			continue
		}
		stage1 += c1
		out += c1 * int64(rangeCount(r3Sorted, midB[i], midB[i]))
	}
	return out, stage1
}

// sortedCopy copies src into dst (same length) and sorts it.
func sortedCopy(dst, src []join.Key) []join.Key {
	dst = append(dst[:0], src...)
	slices.Sort(dst)
	return dst
}

// sortedCopies is sortedCopy of two relations, the first on a second
// goroutine: the oracle runs between ops, while the program is idle.
func sortedCopies(dst1, src1, dst2, src2 []join.Key) ([]join.Key, []join.Key) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		dst1 = sortedCopy(dst1, src1)
	}()
	dst2 = sortedCopy(dst2, src2)
	<-done
	return dst1, dst2
}

// mismatch is a result that disagrees with the oracle; it fails the run.
type mismatch string

func (m mismatch) Error() string { return "wrong result: " + string(m) }

// check compares a count the program returned with the oracle's.
func check(what string, op int, got, want int64) error {
	if got != want {
		return mismatch(fmt.Sprintf("op %d: %s is %d, the oracle counts %d", op, what, got, want))
	}
	return nil
}
