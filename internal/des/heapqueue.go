package des

// heapQueue is the binary-heap EventQueue ordered by (time, seq):
// O(log n) push, pop and remove. It is the reference backend — simple
// enough to trust, and the order oracle the calendar queue is checked
// against.
type heapQueue struct {
	events []*event
}

func (q *heapQueue) Len() int { return len(q.events) }

//churnlb:hotpath
func (q *heapQueue) PeekMin() *event {
	if len(q.events) == 0 {
		return nil
	}
	return q.events[0]
}

func (q *heapQueue) drain() {
	for i, e := range q.events {
		e.fn = nil
		e.index = -1
		q.events[i] = nil
	}
	q.events = q.events[:0]
}

//churnlb:hotpath
func (q *heapQueue) Push(e *event) {
	e.index = len(q.events)
	q.events = append(q.events, e)
	q.up(e.index)
}

//churnlb:hotpath
func (q *heapQueue) PopMin() *event {
	if len(q.events) == 0 {
		return nil
	}
	e := q.events[0]
	last := len(q.events) - 1
	q.swap(0, last)
	q.events[last] = nil
	q.events = q.events[:last]
	if last > 0 {
		q.down(0)
	}
	e.index = -1
	return e
}

//churnlb:hotpath
func (q *heapQueue) Remove(e *event) {
	i := e.index
	last := len(q.events) - 1
	if i != last {
		q.swap(i, last)
	}
	q.events[last] = nil
	q.events = q.events[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
	e.index = -1
}

//churnlb:hotpath
func (q *heapQueue) less(i, j int) bool { return eventLess(q.events[i], q.events[j]) }

//churnlb:hotpath
func (q *heapQueue) swap(i, j int) {
	q.events[i], q.events[j] = q.events[j], q.events[i]
	q.events[i].index = i
	q.events[j].index = j
}

//churnlb:hotpath
func (q *heapQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

//churnlb:hotpath
func (q *heapQueue) down(i int) {
	n := len(q.events)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
