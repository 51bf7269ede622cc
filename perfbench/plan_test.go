package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPlanIsDeterministicPerSeed(t *testing.T) {
	a, b := newPlan(7, exactInstances), newPlan(7, exactInstances)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 gave two plans:\n%v\n%v", a, b)
	}
	if c := newPlan(8, exactInstances); reflect.DeepEqual(a, c) {
		t.Fatalf("seeds 7 and 8 gave the same plan")
	}
	seen := make(map[int64]bool)
	for _, s := range a.instances {
		if s < 1 || s > 1<<40 || seen[s] {
			t.Fatalf("instance seed %d is out of range or repeated", s)
		}
		seen[s] = true
	}
	if a.coldBase <= 1<<40 {
		t.Fatalf("cold seeds start at %d, inside the pooled range", a.coldBase)
	}
}

func TestWarmScheduleFitsTheWindow(t *testing.T) {
	d := 20 * time.Second
	due := dueOffsets(d, warmInterval)
	if !reflect.DeepEqual(due, dueOffsets(d, warmInterval)) {
		t.Fatal("the warm schedule is not deterministic")
	}
	if len(due) != 132 {
		t.Fatalf("%d warm requests in 20 s, want 132", len(due))
	}
	if due[0] != warmInterval/2 {
		t.Errorf("first request due at %v, want %v", due[0], warmInterval/2)
	}
	for i := 1; i < len(due); i++ {
		if due[i]-due[i-1] != warmInterval {
			t.Fatalf("requests %d and %d are %v apart", i-1, i, due[i]-due[i-1])
		}
	}
	if last := due[len(due)-1]; last+warmInterval > d {
		t.Errorf("last request due at %v leaves no interval before %v", last, d)
	}
}
