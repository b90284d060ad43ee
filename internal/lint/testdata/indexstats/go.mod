module example.com/indexstats

go 1.21
