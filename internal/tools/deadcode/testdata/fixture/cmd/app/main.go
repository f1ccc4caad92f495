package main

import "fixture/internal/lib"

func main() {
	var s lib.Shape = lib.Square{}
	_ = s.Area()
	lib.Resize(&lib.Window{})
	var q lib.Queue[int]
	q.Push(1)
}
