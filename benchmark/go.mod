module hclocksync/benchmark

go 1.22

require hclocksync v0.0.0

replace hclocksync => ../
