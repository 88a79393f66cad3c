package vclock

import (
	"container/heap"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// waker serves every short wait of the process from one CLOCK_MONOTONIC
// timerfd. The fd is non-blocking and wrapped by os.NewFile, so the
// goroutine reading it parks in the runtime netpoller, and epoll_wait
// returns the moment the timer expires instead of at the next whole
// millisecond. The timer is armed for the earliest deadline in the heap
// and re-armed only when a new wait is earlier still. One goroutine
// reads the timer while any wait is queued and exits once the heap runs
// dry, so an idle process holds no goroutine for it, as it holds none
// for the runtime timers this stands in for.
type waker struct {
	mu    sync.Mutex
	f     *os.File
	fd    uintptr // f's descriptor; f.Fd() would switch f back to blocking reads
	due   deadlines
	armed time.Time // deadline the timer is armed for; zero when idle, with no reader running
}

var (
	preciseOnce sync.Once
	precise     *waker // nil when timerfd_create failed
)

// clockMonotonic is CLOCK_MONOTONIC from <time.h>, the clock Go's
// monotonic readings come from; the syscall package does not export it.
const clockMonotonic = 1

// itimerspec is struct itimerspec from <sys/timerfd.h>.
type itimerspec struct {
	interval, value syscall.Timespec
}

// preciseAfter returns a channel that receives the time once d (0 < d <
// preciseBound) has passed, never earlier.
func preciseAfter(d time.Duration) <-chan time.Time {
	preciseOnce.Do(startWaker)
	if precise == nil {
		return time.After(d)
	}
	w := &waiter{deadline: time.Now().Add(d), ch: make(chan time.Time, 1)}
	precise.add(w)
	return w.ch
}

func startWaker() {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		uintptr(syscall.O_NONBLOCK|syscall.O_CLOEXEC), 0)
	if errno != 0 {
		return
	}
	precise = &waker{f: os.NewFile(fd, "vclock-timerfd"), fd: fd}
}

func (w *waker) add(wt *waiter) {
	w.mu.Lock()
	defer w.mu.Unlock()
	heap.Push(&w.due, wt)
	if w.armed.IsZero() {
		go w.run() // the previous reader, if any, has returned or is about to, without another read
	} else if !wt.deadline.Before(w.armed) {
		return
	}
	w.arm(wt.deadline)
}

// arm sets the one-shot timer to expire at deadline; w.mu is held. A
// relative timer armed now for deadline-now expires no earlier than the
// deadline, as both sides read CLOCK_MONOTONIC.
func (w *waker) arm(deadline time.Time) {
	w.armed = deadline
	spec := itimerspec{value: syscall.NsecToTimespec(max(int64(time.Until(deadline)), 1))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		panic("vclock: timerfd_settime: " + errno.Error())
	}
}

// run reads the timer until fire finds the heap empty.
func (w *waker) run() {
	var buf [8]byte // the expiration count; only the wake-up matters
	for {
		if _, err := w.f.Read(buf[:]); err != nil {
			panic("vclock: timerfd read: " + err.Error())
		}
		if !w.fire() {
			return
		}
	}
}

// fire wakes every waiter whose deadline has passed and arms the timer
// for the next one, reporting whether one is left. A waiter not yet due
// stays queued whatever woke the timer, so no wait ever returns early.
func (w *waker) fire() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	for len(w.due) > 0 && !w.due[0].deadline.After(now) {
		heap.Pop(&w.due).(*waiter).ch <- now // buffered, never blocks
	}
	if len(w.due) == 0 {
		w.armed = time.Time{}
		return false
	}
	w.arm(w.due[0].deadline)
	return true
}

// deadlines is a min-heap of waiters by deadline.
type deadlines []*waiter

func (h deadlines) Len() int           { return len(h) }
func (h deadlines) Less(i, j int) bool { return h[i].deadline.Before(h[j].deadline) }
func (h deadlines) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deadlines) Push(x any)        { *h = append(*h, x.(*waiter)) }
func (h *deadlines) Pop() any {
	old := *h
	n := len(old) - 1
	wt := old[n]
	old[n] = nil
	*h = old[:n]
	return wt
}
