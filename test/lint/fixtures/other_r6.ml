let unused x = x
