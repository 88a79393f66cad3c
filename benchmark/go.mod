module infinicache/benchmark

go 1.24

require infinicache v0.0.0

replace infinicache => ../
