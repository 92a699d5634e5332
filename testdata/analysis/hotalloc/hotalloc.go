// Package hotalloc is a bbvet fixture: allocation sites inside functions
// annotated //bbvet:hotpath are flagged; unannotated functions and
// terminating panic paths are not.
package hotalloc

type point struct{ x, y int }

//bbvet:hotpath
func hotMake(n int) int {
	buf := make([]float64, n) // want `make allocates`
	return len(buf)
}

//bbvet:hotpath
func hotAppend(dst []int, v int) []int {
	return append(dst, v) // want `append may grow`
}

//bbvet:hotpath
func hotNew() *int {
	return new(int) // want `new allocates`
}

//bbvet:hotpath
func hotClosure(xs []int) func() int {
	return func() int { return len(xs) } // want `closure allocates`
}

//bbvet:hotpath
func hotBoxReturn(v float64) any {
	return v // want `return boxes`
}

//bbvet:hotpath
func hotBoxAssign(v int) {
	var sink any
	sink = v // want `assignment boxes`
	_ = sink
}

//bbvet:hotpath
func hotBoxArg(v int) {
	variadic(v) // want `argument boxes`
}

//bbvet:hotpath
func hotSliceLit() []int {
	return []int{1, 2} // want `composite literal allocates`
}

//bbvet:hotpath
func hotAddrLit() *point {
	return &point{} // want `address of composite literal`
}

//bbvet:hotpath
func hotPanicOK(n int) int {
	if n < 0 {
		panic("negative input") // terminating error path: legal
	}
	return n * 2
}

//bbvet:hotpath
func hotAllowed(n int) []int {
	//bbvet:allow hotalloc one-time setup path, measured cold
	return make([]int, n)
}

// cold has no annotation: allocation is legal.
func cold(n int) []int {
	return make([]int, n)
}

func variadic(args ...any) int { return len(args) }
