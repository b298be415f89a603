package bench

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat: USER_HZ,
// which Linux fixes at 100 on every architecture it exports to user space.
const clockTick = 10 * time.Millisecond

// ProcCPU returns the user+system CPU time consumed so far by every
// thread of process pid.
func ProcCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name in field 2 may hold spaces; fields resume after
	// its closing parenthesis, with state as field 3.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64) // field 14
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(f[12], 10, 64) // field 15
	if err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// SelfCPU returns this process's user+system CPU time at microsecond
// resolution.
func SelfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ResetPeakRSS sets VmHWM of process pid back to its current resident
// set, so that a later PeakRSSMB reads the peak since this call.
func ResetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// PeakRSSMB returns VmHWM, the resident-set high-water mark of process
// pid, in MiB.
func PeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
