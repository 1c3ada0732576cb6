package packet

import "sync"

// A BufferPool recycles datagram buffers between sends so a steady
// send → transmit → recycle cycle allocates nothing. It is safe for
// concurrent use.
//
// The pool keeps the slice headers of returned buffers alive in a
// second sync.Pool so that Put itself does not allocate a header: a
// buffer's header object round-trips between the two pools instead of
// being re-boxed on every call.
type BufferPool struct {
	bufs  sync.Pool // *poolBuf with a live buffer
	spare sync.Pool // *poolBuf with no buffer (header recycling)
}

type poolBuf struct{ b []byte }

// Get returns a zero-length buffer with at least capHint capacity,
// reusing a recycled buffer when one is available. A nil pool
// allocates fresh.
func (bp *BufferPool) Get(capHint int) []byte {
	if bp != nil {
		if w, _ := bp.bufs.Get().(*poolBuf); w != nil {
			b := w.b
			w.b = nil
			bp.spare.Put(w)
			if cap(b) >= capHint {
				return b[:0]
			}
		}
	}
	return make([]byte, 0, capHint) //lint:allow hotalloc pool miss: the steady state recycles buffers, a miss allocates the replacement
}

// Put returns a buffer to the pool. The caller must not touch b again.
// Nil pools and zero-capacity buffers are ignored.
func (bp *BufferPool) Put(b []byte) {
	if bp == nil || cap(b) == 0 {
		return
	}
	w, _ := bp.spare.Get().(*poolBuf)
	if w == nil {
		w = new(poolBuf) //lint:allow hotalloc pool miss: wrapper nodes are recycled alongside the buffers they carry
	}
	w.b = b
	bp.bufs.Put(w)
}
