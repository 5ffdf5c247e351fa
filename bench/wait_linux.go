package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter blocks a worker until a request comes due. time.Sleep is not
// precise enough for an open loop: when every P is idle the runtime
// parks in epoll with a whole-millisecond timeout, so a 100µs sleep
// returns about 1ms late and the lateness would be charged to the
// system under test. A timerfd read goes through the same poller but
// wakes it by readiness, which lands within a few microseconds.
type waiter struct {
	fd uintptr
	f  *os.File
}

// itimerspec mirrors struct itimerspec (interval, then first expiry).
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

const clockMonotonic = 1

func newWaiter() (*waiter, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("bench: timerfd_create: %w", errno)
	}
	return &waiter{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// wait returns once d has elapsed; d <= 0 returns at once.
func (w *waiter) wait(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("bench: timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := w.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("bench: timerfd read: %w", err)
	}
	return nil
}

func (w *waiter) close() { w.f.Close() }
