module mobispatial/bench

go 1.22

require mobispatial v0.0.0

replace mobispatial => ../
