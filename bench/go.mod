module churnlb/bench

go 1.24

require churnlb v0.0.0

replace churnlb => ../
