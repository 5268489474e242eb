module tiga/bench

go 1.22

require tiga v0.0.0

replace tiga => ../
