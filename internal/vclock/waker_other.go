//go:build !linux

package vclock

import "time"

// preciseAfter falls back to the runtime timer off Linux.
func preciseAfter(d time.Duration) <-chan time.Time { return time.After(d) }
