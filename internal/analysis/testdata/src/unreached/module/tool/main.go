//rbvet:pkgpath repro/cmd/tool

package main

import (
	"fmt"

	"repro/internal/lib"
)

func main() { fmt.Println(lib.Used([]string{"b", "a"}), lib.Table.Run(2)) }
