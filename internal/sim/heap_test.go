package sim

import "container/heap"

// eventQueue is a min-heap on the event ordering — the test oracle the
// calendar queue is held to (cross-engine harness, FuzzEventSchedule, the
// …/heap benchmarks).
type eventQueue []event

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(i, j int) bool  { return q[i].less(q[j]) }
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// schedule pushes an event.
func (q *eventQueue) schedule(e event) { heap.Push(q, e) }

// next pops the earliest event.
func (q *eventQueue) next() event { return heap.Pop(q).(event) }

// reset empties the heap, keeping its capacity.
func (q *eventQueue) reset() { *q = (*q)[:0] }

func newHeapQueue() scheduler { return &eventQueue{} }

func newCalendarScheduler() scheduler { return newCalendarQueue() }
