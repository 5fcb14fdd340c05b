module deepfusion/benchmark

go 1.24.0

require deepfusion v0.0.0

replace deepfusion => ../
