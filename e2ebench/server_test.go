package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields;
	// utime is 250 ticks and stime 70.
	stat := "4242 (flexray serve) x) S 1 4242 4242 0 -1 4194560 3024 0 0 0 250 70 0 0 20 0 9 0 12345 1234567 890 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3200 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "4242 flexray-serve S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 ab 70"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := strings.Join([]string{
		"Name:\tflexray-serve",
		"VmPeak:\t 1234560 kB",
		"VmHWM:\t   68520 kB",
		"VmRSS:\t   51200 kB",
	}, "\n")
	got, err := parseStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(68520 * 1024); got != want {
		t.Errorf("VmHWM = %d bytes, want %d", got, want)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t68520\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseStatusHWM(bad); err == nil {
			t.Errorf("parseStatusHWM(%q) succeeded", bad)
		}
	}
}
