// Package other has only a test, which uses lib.
package other
