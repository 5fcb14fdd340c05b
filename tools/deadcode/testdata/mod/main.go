package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	lib.Live()
	fmt.Println(lib.T{})
}
