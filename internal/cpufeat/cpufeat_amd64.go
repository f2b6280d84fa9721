package cpufeat

// AVX2 reports whether the CPU executes AVX2 and the OS saves the YMM
// registers across context switches.
var AVX2 = detectAVX2()

// detectAVX2 reads CPUID leaf 7's AVX2 bit, after leaf 1's OSXSAVE and AVX
// bits and XCR0's SSE and AVX state bits say the OS has enabled the YMM
// state.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)
