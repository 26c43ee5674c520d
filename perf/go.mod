module mosquitonet/perf

go 1.22

require mosquitonet v0.0.0

replace mosquitonet => ../
