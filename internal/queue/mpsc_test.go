package queue

import (
	"sync"
	"testing"
)

func TestMPSCPutTakeWraps(t *testing.T) {
	q := NewMPSC[int](5)
	dst := make([]int, 3)
	next, want := 0, 0
	// Runs of 3 into a ring of 5 wrap on every other put.
	for round := 0; round < 10; round++ {
		run := []int{next, next + 1, next + 2}
		if n, space := q.Put(run); n != 3 || space != nil {
			t.Fatalf("round %d: Put = %d, space %v", round, n, space != nil)
		}
		next += 3
		for got := 0; got < 3; {
			n, left, done := q.Take(dst)
			if done {
				t.Fatal("done before Close")
			}
			for _, v := range dst[:n] {
				if v != want {
					t.Fatalf("took %d, want %d", v, want)
				}
				want++
			}
			got += n
			if left != 3-got {
				t.Fatalf("left = %d, want %d", left, 3-got)
			}
		}
	}
}

func TestMPSCBoundCountsItems(t *testing.T) {
	q := NewMPSC[int](4)
	n, space := q.Put([]int{1, 2, 3, 4, 5, 6})
	if n != 4 || space == nil {
		t.Fatalf("Put into empty cap-4 queue = %d (space %v), want 4 and a wait channel", n, space != nil)
	}
	if q.Len() != 4 || q.Cap() != 4 {
		t.Fatalf("Len %d Cap %d", q.Len(), q.Cap())
	}
	select {
	case <-space:
		t.Fatal("space signalled before any take")
	default:
	}
	dst := make([]int, 2)
	if n, left, _ := q.Take(dst); n != 2 || left != 2 {
		t.Fatalf("Take = %d, left %d", n, left)
	}
	<-space // closed by the take
	if n, _ := q.Put([]int{5, 6, 7}); n != 2 {
		t.Fatalf("Put after take = %d, want 2", n)
	}
	var got []int
	for {
		n, left, _ := q.Take(dst)
		got = append(got, dst[:n]...)
		if left == 0 {
			break
		}
	}
	for i, v := range []int{3, 4, 5, 6} {
		if got[i] != v {
			t.Fatalf("order %v", got)
		}
	}
}

func TestMPSCCloseAndPutAllStop(t *testing.T) {
	q := NewMPSC[int](1)
	stop := make(chan struct{})
	close(stop)
	if n := q.PutAll([]int{1, 2}, stop); n != 1 {
		t.Fatalf("PutAll with stop = %d, want 1", n)
	}
	q.Close()
	<-q.Ready()
	dst := make([]int, 4)
	if n, left, done := q.Take(dst); n != 1 || left != 0 || !done {
		t.Fatalf("Take after Close = %d, %d, %v", n, left, done)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put on a closed queue did not panic")
		}
	}()
	q.Put([]int{3})
}

// TestMPSCConcurrentProducers: with producers racing over a tiny queue,
// every item arrives exactly once and each producer's items stay in order.
func TestMPSCConcurrentProducers(t *testing.T) {
	const producers, perProducer, run = 4, 2000, 7
	q := NewMPSC[[2]int](16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			items := make([][2]int, 0, run)
			for i := 0; i < perProducer; i += run {
				items = items[:0]
				for j := i; j < i+run && j < perProducer; j++ {
					items = append(items, [2]int{p, j})
				}
				if n := q.PutAll(items, nil); n != len(items) {
					t.Errorf("PutAll = %d of %d", n, len(items))
				}
			}
		}(p)
	}
	go func() { wg.Wait(); q.Close() }()
	next := make([]int, producers)
	dst := make([][2]int, 5)
	for {
		<-q.Ready()
		done := false
		for {
			var n, left int
			n, left, done = q.Take(dst)
			for _, it := range dst[:n] {
				if it[1] != next[it[0]] {
					t.Fatalf("producer %d: got item %d, want %d", it[0], it[1], next[it[0]])
				}
				next[it[0]]++
			}
			if left == 0 {
				break
			}
		}
		if done {
			break
		}
	}
	for p, n := range next {
		if n != perProducer {
			t.Fatalf("producer %d: %d items arrived, want %d", p, n, perProducer)
		}
	}
}
