package lib

func kernel() {}
