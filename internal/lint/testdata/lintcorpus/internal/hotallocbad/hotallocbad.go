// Package hotallocbad exercises the hotalloc analyzer: compiler
// escape diagnostics surfaced inside the static closure of
// //lint:hot roots, and nowhere else.
package hotallocbad

import (
	"errors"
	"fmt"
)

var sink *int

// Hot is a hot root: neither it nor anything statically reachable
// from it may allocate.
//
//lint:hot
func Hot(n int) int {
	x := n // want "hotalloc: allocation on //lint:hot path in hotallocbad.Hot: moved to heap: x"
	sink = &x
	// The helper call is inlined, so its allocation is also reported
	// here, in the frame where it really happens.
	return helper(n) // want "hotalloc: allocation on //lint:hot path in hotallocbad.Hot: make.* escapes to heap"
}

func helper(n int) int {
	s := make([]int, n) // want "hotalloc: allocation on //lint:hot path in hotallocbad.helper: make.* escapes to heap"
	return len(s)
}

// coldOnly is not reachable from any hot root: its allocation is
// nobody's business.
func coldOnly(n int) []int {
	return make([]int, n)
}

var coldSink = coldOnly(4)

type doer interface{ Do(int) int }

// HotDyn calls through an interface: a dynamic dispatch boundary the
// static closure does not cross (runtime zero-alloc tests cover it).
//
//lint:hot
func HotDyn(d doer, n int) int { return d.Do(n) }

type allocDoer struct{}

func (allocDoer) Do(n int) int { return len(coldOnly(n)) }

var _ doer = allocDoer{}

var errShort = errors.New("short buffer")

// HotErr's error construction is cold by rule: the operands boxed by
// fmt.Errorf, and those inlined from badLen (whose whole body is one
// fmt.Errorf), are not reported.
//
//lint:hot
func HotErr(b []byte, n int) error {
	if len(b) < n {
		return fmt.Errorf("%w: %d < %d", errShort, len(b), n)
	}
	if n < 0 {
		return badLen(n)
	}
	return nil
}

func badLen(n int) error { return fmt.Errorf("negative length %d", n) }

var emitted []byte

// HotEmit hands an allocation to a steady-state call that merely
// returns an error: that is not error construction, so it is reported.
//
//lint:hot
func HotEmit(n int) error {
	return emit(make([]byte, n)) // want "hotalloc: allocation on //lint:hot path in hotallocbad.HotEmit: make.* escapes to heap"
}

func emit(b []byte) error {
	emitted = b
	if len(b) == 0 {
		return errShort
	}
	return nil
}
