module gdprstore/bench

go 1.22

require gdprstore v0.0.0

replace gdprstore => ../
