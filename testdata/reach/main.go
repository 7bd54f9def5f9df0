// Command reachfix is the binary of the reachability fixture.
package main

import "reachfix/lib"

func main() { println(lib.Used()) }
