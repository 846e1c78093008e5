char tag = 7;
int g = -3;
char msg[8] = "abc";
int tab[4];
int result;
int mix(int a, int b, int c) {
	int big[1100];
	char cs;
	int v1; int v2; int v3; int v4; int v5; int v6; int v7; int v8;
	int *p;
	v1 = a * 10;
	v2 = b * -4;
	v3 = c * 5000;
	v4 = a / b;
	v5 = a % c;
	v6 = -v1;
	v7 = ~v2;
	v8 = (v3 << 2) + (v4 >> 1);
	big[1099] = v5 + v6;
	p = &v8;
	*p = *p + 1;
	cs = v7;
	tab[2] = cs + tag;
	while (a < 10000) a = a + 3000;
	big[0] = big[1099] - 5000;
	return v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + big[0] + tab[2] + msg[1] + (3 - a);
}
int main() {
	char *s;
	s = "hi";
	g = g + s[1];
	result = mix(9, 2, 5) + g;
	return 0;
}
