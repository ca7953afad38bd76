module sflow/benchmark

go 1.24

require sflow v0.0.0

replace sflow => ../
