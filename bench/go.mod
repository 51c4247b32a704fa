module goldms/bench

go 1.22

require goldms v0.0.0

replace goldms => ../
