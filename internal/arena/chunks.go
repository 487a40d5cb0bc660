package arena

// Chunks is a pool of T records carved from fixed-size chunks. A record
// never moves once handed out, so it may point into itself (a conn whose
// queue slices alias its own inline arrays) and others may hold pointers
// to it. Rewind makes every retained chunk available again without
// freeing any, so a pool reused cell after cell stabilizes at its peak
// population and then allocates nothing.
//
// Next hands records back as the previous user left them: callers
// initialize every field they rely on (a fresh chunk is zeroed). Not
// safe for concurrent use.
type Chunks[T any] struct {
	list     [][]T // grow-only; all retained across Rewind
	cur, off int   // next record: list[cur][off]
}

// Next returns the next record, appending a chunk of size records when
// every retained chunk is in use.
func (c *Chunks[T]) Next(size int) *T {
	if c.cur < len(c.list) && c.off == len(c.list[c.cur]) {
		c.cur++
		c.off = 0
	}
	if c.cur == len(c.list) {
		c.list = append(c.list, make([]T, size))
	}
	r := &c.list[c.cur][c.off]
	c.off++
	return r
}

// Rewind returns every record to the pool. Records handed out before
// must not be used afterwards: Next will hand them out again.
func (c *Chunks[T]) Rewind() { c.cur, c.off = 0, 0 }
