module datacron/bench

go 1.22

require datacron v0.0.0

replace datacron => ../
