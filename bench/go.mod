module mediacache/bench

go 1.23

require mediacache v0.0.0

replace mediacache => ../
