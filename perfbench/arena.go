package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap returns an empty slice with room for n values of T in
// anonymous memory outside the Go heap. The traced run keeps its spans
// there: spans kept on the heap would grow it throughout the timed
// phase and slow the collector's pace, so the traced run would spend
// less CPU on garbage collection than the untraced run it explains. T
// must hold no pointers, since the collector does not scan this memory.
// Pages are committed only as they are written; the mapping lives until
// the process exits.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("span buffer of %d bytes: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0], nil
}

// push appends v if s has room left and reports whether it did, so an
// off-heap buffer never reallocates onto the heap.
func push[T any](s *[]T, v T) bool {
	if len(*s) == cap(*s) {
		return false
	}
	*s = append(*s, v)
	return true
}
