module vada/benchmark

go 1.24

require vada v0.0.0

replace vada => ../
