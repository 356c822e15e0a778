package sim

// ring is a growable circular FIFO. It replaces the `items = items[1:]`
// slicing idiom used previously by Queue and Resource: popping from a sliced
// slice keeps the whole backing array reachable and re-appending after a
// slice-from-front grows the array without bound, so a long-lived queue with
// a small steady-state population still retained memory proportional to its
// total historical traffic. A ring reuses the same slots forever; capacity is
// always a power of two so index wrapping is a mask, and it only grows when
// the live population actually exceeds capacity.
//
// The zero value is an empty, ready-to-use ring. The first push allocates a
// single slot and each growth doubles, so a ring is only ever as large as the
// smallest power of two that held its peak population: most queues (a
// connection's receive queue, a rank's mailbox) rarely hold more than one
// element at a time, and a queue that does reaches its size in a few
// doublings.
type ring[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int // index of the oldest element
	n    int // live element count
}

// len returns the number of buffered elements.
func (r *ring[T]) len() int { return r.n }

// push appends v at the tail.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the head element, zeroing its slot so the ring
// never retains references to departed elements.
func (r *ring[T]) pop() T {
	if r.n == 0 {
		panic("sim: pop from empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// at returns a pointer to the i-th element counted from the head.
func (r *ring[T]) at(i int) *T {
	if i < 0 || i >= r.n {
		panic("sim: ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// clear empties the ring, zeroing all live slots.
func (r *ring[T]) clear() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = zero
	}
	r.head, r.n = 0, 0
}

// capacity returns the current backing-array size (for memory-retention
// tests).
func (r *ring[T]) capacity() int { return len(r.buf) }

func (r *ring[T]) grow() {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = 1
	}
	buf := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
