module github.com/bigreddata/brace/bench

go 1.21

require github.com/bigreddata/brace v0.0.0

replace github.com/bigreddata/brace => ../
