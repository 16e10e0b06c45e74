package main

import "fixture/lib"

func main() {
	var d lib.Doer = lib.Impl{}
	println(d.Do())
}
