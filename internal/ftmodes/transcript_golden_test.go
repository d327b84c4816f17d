package ftmodes

// Golden transcripts of TestReplicationTranscriptGolden: step slot,
// client, operation, key label, virtual completion time (ns), the
// client's cumulative Counters(), its doorbells and the result. The
// fusee rows were recorded at d8c4cce, before the two modes were moved
// onto one substrate, and so were the swarm rows, which moved once
// since, with the fix of its stale cached word0: every cached update
// reads 16 bytes of the slot where it read 8 (+1 ns on each such row,
// counters and results as before), and after FailMN no update lands on
// a copy the index no longer points at (nine GETs read "exhausted"
// before). Both were re-recorded when the db= column came in, and the
// fusee rows moved with it: its write rings one doorbell for the backup
// CASes and lets the copies and the peer words ride doorbells it rings
// anyway (an uncached UPDATE 7 → 4, a cached one 4 → 3, an INSERT 6 →
// 4). Only t=, cas= and db= moved; reads, writes and every result are
// as before. Both were re-recorded again when every fusee CAS came to
// expect a word read during the op and a loser of the first backup came
// to wait for the last writer's commit: the fusee counters move from
// row 010 on, and the GET right after the 3-way race reads v010 where
// it read v011. Any racer's value is linearizable there: the racer that
// wrote v011 is now absorbed, and the one that wrote v010 commits last,
// at its second attempt. A DELETE of a deleted key now finds it deleted
// in both modes, so swarm's cached DELETE reads the copy alongside its
// slot: its rows move in rd= and t= only, from that DELETE (row 019) on.
// Every other result is as before.

const goldenFusee = `
000 c0 INS pri  t=31338 cas=3 rd=4 wr=3 db=4 ok
001 c1 INS bak  t=1000031271 cas=3 rd=4 wr=3 db=4 ok
002 c1 INS cp0  t=2000013938 cas=6 rd=8 wr=6 db=8 ok
003 c2 INS none t=3000031308 cas=3 rd=4 wr=3 db=4 ok
004 c0 INS grow t=4000031271 cas=6 rd=8 wr=6 db=8 ok
005 c0 INS del  t=5000013871 cas=9 rd=12 wr=9 db=12 ok
006 c2 INS race t=6000013871 cas=6 rd=8 wr=6 db=8 ok
007 c1 GET pri  t=7000006673 cas=6 rd=11 wr=6 db=10 "v001-000001."/120
008 c1 GET pri  t=8000003348 cas=6 rd=14 wr=6 db=11 "v001-000001."/120
009 c0 GET pri  t=9000003348 cas=9 rd=15 wr=9 db=13 "v001-000001."/120
010 c0 UPD pri  t=10000010620 cas=12 rd=18 wr=12 db=16 ok
011 c2 UPD pri  t=11000013995 cas=9 rd=13 wr=9 db=12 ok
012 c0 GET pri  t=12000006575 cas=12 rd=22 wr=12 db=18 "v008-000008."/120
013 c0 UPD pri  t=13000014035 cas=15 rd=27 wr=15 db=22 ok
014 c1 UPD grow t=14000031657 cas=9 rd=19 wr=9 db=15 ok
015 c1 GET grow t=15000003348 cas=9 rd=22 wr=9 db=16 "BBBBBBBBBBBB"/600
016 c0 GET grow t=16000009848 cas=15 rd=32 wr=15 db=25 "BBBBBBBBBBBB"/600
017 c0 UPD grow t=17000017192 cas=18 rd=38 wr=18 db=30 ok
018 c2 GET grow t=18000006673 cas=9 rd=16 wr=9 db=14 "small again"/11
019 c0 DEL del  t=19000017147 cas=21 rd=43 wr=21 db=35 ok
020 c0 GET del  t=20000003348 cas=21 rd=46 wr=21 db=36 notfound
021 c2 GET del  t=21000006673 cas=9 rd=19 wr=9 db=16 notfound
022 c1 DEL miss t=22000003318 cas=9 rd=24 wr=9 db=17 notfound
023 c1 GET miss t=23000003318 cas=9 rd=26 wr=9 db=18 notfound
024 c0 UPD race t=24000031123 cas=27 rd=56 wr=27 db=44 ok
024 c1 UPD race t=24000013733 cas=11 rd=32 wr=12 db=22 ok
024 c2 UPD race t=24000011003 cas=12 rd=22 wr=12 db=19 ok
025 c1 GET race t=25000006673 cas=11 rd=35 wr=12 db=24 "v010-000010."/120
026 c0 UPD pri  t=26000010620 cas=30 rd=59 wr=30 db=47 ok
027 c1 UPD pri  t=27000013938 cas=14 rd=40 wr=15 db=28 ok
028 c2 UPD pri  t=28000010590 cas=15 rd=25 wr=15 db=22 ok
029 c0 GET pri  t=29000006575 cas=30 rd=63 wr=30 db=49 "v015-000015."/120
030 c1 GET pri  t=30000006672 cas=14 rd=44 wr=15 db=30 "v015-000015."/120
031 c2 GET pri  t=31000003348 cas=15 rd=28 wr=15 db=23 "v015-000015."/120
032 c0 UPD bak  t=32000014096 cas=33 rd=68 wr=33 db=53 ok
033 c1 UPD bak  t=33000010583 cas=17 rd=47 wr=18 db=33 ok
034 c2 UPD bak  t=34000014193 cas=18 rd=33 wr=18 db=27 ok
035 c0 GET bak  t=35000006575 cas=33 rd=72 wr=33 db=55 "v018-000018."/120
036 c1 GET bak  t=36000006575 cas=17 rd=51 wr=18 db=35 "v018-000018."/120
037 c2 GET bak  t=37000003348 cas=18 rd=36 wr=18 db=28 "v018-000018."/120
038 c0 UPD cp0  t=38000014092 cas=36 rd=77 wr=36 db=59 ok
039 c1 UPD cp0  t=39000010620 cas=20 rd=54 wr=21 db=38 ok
040 c2 UPD cp0  t=40000014032 cas=21 rd=41 wr=21 db=32 ok
041 c0 GET cp0  t=41000006575 cas=36 rd=81 wr=36 db=61 "v021-000021."/120
042 c1 GET cp0  t=42000006575 cas=20 rd=58 wr=21 db=40 "v021-000021."/120
043 c2 GET cp0  t=43000003445 cas=21 rd=44 wr=21 db=33 "v021-000021."/120
044 c0 UPD none t=44000014092 cas=39 rd=86 wr=39 db=65 ok
045 c1 UPD none t=45000014062 cas=23 rd=63 wr=24 db=44 ok
046 c2 UPD none t=46000010620 cas=24 rd=47 wr=24 db=36 ok
047 c0 GET none t=47000006575 cas=39 rd=90 wr=39 db=67 "v024-000024."/120
048 c1 GET none t=48000006575 cas=23 rd=67 wr=24 db=46 "v024-000024."/120
049 c2 GET none t=49000003445 cas=24 rd=50 wr=24 db=37 "v024-000024."/120
050 c0 UPD grow t=50000010583 cas=42 rd=93 wr=42 db=70 ok
051 c1 UPD grow t=51000010620 cas=26 rd=70 wr=27 db=49 ok
052 c2 UPD grow t=52000017195 cas=27 rd=56 wr=27 db=42 ok
053 c0 GET grow t=53000006575 cas=42 rd=97 wr=42 db=72 "v027-000027."/120
054 c1 GET grow t=54000006575 cas=26 rd=74 wr=27 db=51 "v027-000027."/120
055 c2 GET grow t=55000003348 cas=27 rd=59 wr=27 db=43 "v027-000027."/120
056 c0 UPD race t=56000010620 cas=45 rd=100 wr=45 db=75 ok
057 c1 UPD race t=57000013901 cas=29 rd=79 wr=30 db=55 ok
058 c2 UPD race t=58000010583 cas=30 rd=62 wr=30 db=46 ok
059 c0 GET race t=59000006672 cas=45 rd=104 wr=45 db=77 "v030-000030."/120
060 c1 GET race t=60000006575 cas=29 rd=83 wr=30 db=57 "v030-000030."/120
061 c2 GET race t=61000003348 cas=30 rd=65 wr=30 db=47 "v030-000030."/120
062 -- FailMN(2)
063 c0 GET pri  t=63000006545 cas=45 rd=107 wr=45 db=79 "v015-000015."/120
064 c0 UPD pri  t=64000052667 cas=47 rd=119 wr=51 db=89 ok
065 c1 UPD pri  t=65000052413 cas=31 rd=95 wr=36 db=67 ok
066 c2 UPD pri  t=66000013975 cas=32 rd=69 wr=33 db=51 ok
067 c2 UPD pri  t=67000013975 cas=34 rd=73 wr=36 db=55 ok
068 c1 UPD pri  t=68000013975 cas=33 rd=99 wr=39 db=71 ok
069 c0 UPD pri  t=69000014005 cas=49 rd=123 wr=54 db=93 ok
070 c0 GET pri  t=70000006545 cas=49 rd=126 wr=54 db=95 "v036-000036."/120
071 c1 GET pri  t=71000006545 cas=33 rd=102 wr=39 db=73 "v036-000036."/120
072 c2 GET pri  t=72000006545 cas=34 rd=76 wr=36 db=57 "v036-000036."/120
073 c0 GET bak  t=73000003348 cas=49 rd=129 wr=54 db=96 "v018-000018."/120
074 c0 UPD bak  t=74000013841 cas=51 rd=133 wr=57 db=100 ok
075 c1 UPD bak  t=75000014035 cas=35 rd=106 wr=42 db=77 ok
076 c2 UPD bak  t=76000010590 cas=36 rd=78 wr=39 db=60 ok
077 c2 UPD bak  t=77000010590 cas=38 rd=80 wr=42 db=63 ok
078 c1 UPD bak  t=78000010590 cas=37 rd=108 wr=45 db=80 ok
079 c0 UPD bak  t=79000010530 cas=53 rd=135 wr=60 db=103 ok
080 c0 GET bak  t=80000003348 cas=53 rd=138 wr=60 db=104 "v042-000042."/120
081 c1 GET bak  t=81000006575 cas=37 rd=112 wr=45 db=82 "v042-000042."/120
082 c2 GET bak  t=82000006575 cas=38 rd=84 wr=42 db=65 "v042-000042."/120
083 c0 GET cp0  t=83000003445 cas=53 rd=141 wr=60 db=105 "v021-000021."/120
084 c0 UPD cp0  t=84000013968 cas=56 rd=146 wr=63 db=109 ok
085 c1 UPD cp0  t=85000013938 cas=40 rd=117 wr=48 db=86 ok
086 c2 UPD cp0  t=86000010620 cas=41 rd=87 wr=45 db=68 ok
087 c2 UPD cp0  t=87000010620 cas=44 rd=90 wr=48 db=71 ok
088 c1 UPD cp0  t=88000010620 cas=43 rd=120 wr=51 db=89 ok
089 c0 UPD cp0  t=89000010620 cas=59 rd=149 wr=66 db=112 ok
090 c0 GET cp0  t=90000003348 cas=59 rd=152 wr=66 db=113 "v048-000048."/120
091 c1 GET cp0  t=91000006672 cas=43 rd=124 wr=51 db=91 "v048-000048."/120
092 c2 GET cp0  t=92000006672 cas=44 rd=94 wr=48 db=73 "v048-000048."/120
093 c0 GET none t=93000003445 cas=59 rd=155 wr=66 db=114 "v024-000024."/120
094 c0 UPD none t=94000013968 cas=62 rd=160 wr=69 db=118 ok
095 c1 UPD none t=95000013938 cas=46 rd=129 wr=54 db=95 ok
096 c2 UPD none t=96000010620 cas=47 rd=97 wr=51 db=76 ok
097 c2 UPD none t=97000010620 cas=50 rd=100 wr=54 db=79 ok
098 c1 UPD none t=98000010620 cas=49 rd=132 wr=57 db=98 ok
099 c0 UPD none t=99000010620 cas=65 rd=163 wr=72 db=121 ok
100 c0 GET none t=100000003348 cas=65 rd=166 wr=72 db=122 "v054-000054."/120
101 c1 GET none t=101000006672 cas=49 rd=136 wr=57 db=100 "v054-000054."/120
102 c2 GET none t=102000006672 cas=50 rd=104 wr=54 db=81 "v054-000054."/120
103 c0 GET grow t=103000003348 cas=65 rd=169 wr=72 db=123 "v027-000027."/120
104 c0 UPD grow t=104000013998 cas=68 rd=174 wr=75 db=127 ok
105 c1 UPD grow t=105000014035 cas=52 rd=141 wr=60 db=104 ok
106 c2 UPD grow t=106000010620 cas=53 rd=107 wr=57 db=84 ok
107 c2 UPD grow t=107000010620 cas=56 rd=110 wr=60 db=87 ok
108 c1 UPD grow t=108000010620 cas=55 rd=144 wr=63 db=107 ok
109 c0 UPD grow t=109000010620 cas=71 rd=177 wr=78 db=130 ok
110 c0 GET grow t=110000003348 cas=71 rd=180 wr=78 db=131 "v060-000060."/120
111 c1 GET grow t=111000006575 cas=55 rd=148 wr=63 db=109 "v060-000060."/120
112 c2 GET grow t=112000006575 cas=56 rd=114 wr=60 db=89 "v060-000060."/120
113 c0 GET race t=113000003348 cas=71 rd=183 wr=78 db=132 "v030-000030."/120
114 c0 UPD race t=114000013975 cas=73 rd=187 wr=81 db=136 ok
115 c1 UPD race t=115000013841 cas=57 rd=152 wr=66 db=113 ok
116 c2 UPD race t=116000010530 cas=58 rd=116 wr=63 db=92 ok
117 c2 UPD race t=117000010530 cas=60 rd=118 wr=66 db=95 ok
118 c1 UPD race t=118000010530 cas=59 rd=154 wr=69 db=116 ok
119 c0 UPD race t=119000010560 cas=75 rd=189 wr=84 db=139 ok
120 c0 GET race t=120000003445 cas=75 rd=192 wr=84 db=140 "v066-000066."/120
121 c1 GET race t=121000006575 cas=59 rd=158 wr=69 db=118 "v066-000066."/120
122 c2 GET race t=122000006575 cas=60 rd=122 wr=66 db=97 "v066-000066."/120
123 c0 GET del  t=123000003348 cas=75 rd=195 wr=84 db=141 notfound
124 c1 INS late t=124000013811 cas=61 rd=161 wr=72 db=122 ok
125 c2 GET late t=125000006673 cas=60 rd=125 wr=66 db=99 "v067-000067."/120
126 c2 UPD late t=126000013938 cas=62 rd=129 wr=69 db=103 ok
127 c1 GET late t=127000006575 cas=61 rd=165 wr=72 db=124 "v068-000068."/120
`

const goldenSwarm = `
000 c0 INS pri  t=38158 cas=3 rd=4 wr=5 db=6 ok
001 c1 INS bak  t=1000038098 cas=3 rd=4 wr=5 db=6 ok
002 c1 INS cp0  t=2000020758 cas=6 rd=8 wr=10 db=12 ok
003 c2 INS none t=3000038158 cas=3 rd=4 wr=5 db=6 ok
004 c0 INS grow t=4000038091 cas=6 rd=8 wr=10 db=12 ok
005 c0 INS del  t=5000020698 cas=9 rd=12 wr=15 db=18 ok
006 c2 INS race t=6000020698 cas=6 rd=8 wr=10 db=12 ok
007 c1 GET pri  t=7000006691 cas=6 rd=11 wr=10 db=14 "v001-000001."/120
008 c1 GET pri  t=8000003257 cas=6 rd=13 wr=10 db=15 "v001-000001."/120
009 c0 GET pri  t=9000003257 cas=9 rd=14 wr=15 db=19 "v001-000001."/120
010 c0 UPD pri  t=10000010191 cas=10 rd=15 wr=20 db=22 ok
011 c2 UPD pri  t=11000016911 cas=7 rd=13 wr=15 db=17 ok
012 c0 GET pri  t=12000003257 cas=10 rd=17 wr=20 db=23 "v008-000008."/120
013 c0 UPD pri  t=13000010191 cas=11 rd=18 wr=25 db=26 ok
014 c1 UPD grow t=14000034375 cas=7 rd=18 wr=18 db=20 ok
015 c1 GET grow t=15000003321 cas=7 rd=20 wr=18 db=21 "BBBBBBBBBBBB"/600
016 c0 GET grow t=16000013075 cas=11 rd=24 wr=25 db=30 "BBBBBBBBBBBB"/600
017 c0 UPD grow t=17000016780 cas=12 rd=29 wr=30 db=35 ok
018 c2 GET grow t=18000006691 cas=7 rd=16 wr=15 db=19 "small again"/11
019 c0 DEL del  t=19000010179 cas=13 rd=31 wr=35 db=38 ok
020 c0 GET del  t=20000003257 cas=13 rd=33 wr=35 db=39 notfound
021 c2 GET del  t=21000006691 cas=7 rd=19 wr=15 db=21 notfound
022 c1 DEL miss t=22000003336 cas=7 rd=22 wr=18 db=22 notfound
023 c1 GET miss t=23000003336 cas=7 rd=24 wr=18 db=23 notfound
024 c0 UPD race t=24000032993 cas=15 rd=43 wr=40 db=48 ok
024 c1 UPD race t=24000053017 cas=10 rd=39 wr=23 db=36 ok
024 c2 UPD race t=24000010593 cas=8 rd=20 wr=20 db=24 ok
025 c1 GET race t=25000003257 cas=10 rd=41 wr=23 db=37 "v011-000011."/120
026 c0 UPD pri  t=26000010191 cas=16 rd=44 wr=45 db=51 ok
027 c1 UPD pri  t=27000016783 cas=11 rd=46 wr=28 db=42 ok
028 c2 UPD pri  t=28000010191 cas=9 rd=21 wr=25 db=27 ok
029 c0 GET pri  t=29000003257 cas=16 rd=46 wr=45 db=52 "v015-000015."/120
030 c1 GET pri  t=30000003257 cas=11 rd=48 wr=28 db=43 "v015-000015."/120
031 c2 GET pri  t=31000003257 cas=9 rd=23 wr=25 db=28 "v015-000015."/120
032 c0 UPD bak  t=32000016851 cas=17 rd=51 wr=50 db=57 ok
033 c1 UPD bak  t=33000010131 cas=12 rd=49 wr=33 db=46 ok
034 c2 UPD bak  t=34000016851 cas=10 rd=28 wr=30 db=33 ok
035 c0 GET bak  t=35000003257 cas=17 rd=53 wr=50 db=58 "v018-000018."/120
036 c1 GET bak  t=36000003257 cas=12 rd=51 wr=33 db=47 "v018-000018."/120
037 c2 GET bak  t=37000003257 cas=10 rd=30 wr=30 db=34 "v018-000018."/120
038 c0 UPD cp0  t=38000016911 cas=18 rd=58 wr=55 db=63 ok
039 c1 UPD cp0  t=39000010191 cas=13 rd=52 wr=38 db=50 ok
040 c2 UPD cp0  t=40000016911 cas=11 rd=35 wr=35 db=39 ok
041 c0 GET cp0  t=41000003257 cas=18 rd=60 wr=55 db=64 "v021-000021."/120
042 c1 GET cp0  t=42000003257 cas=13 rd=54 wr=38 db=51 "v021-000021."/120
043 c2 GET cp0  t=43000003257 cas=11 rd=37 wr=35 db=40 "v021-000021."/120
044 c0 UPD none t=44000016911 cas=19 rd=65 wr=60 db=69 ok
045 c1 UPD none t=45000016911 cas=14 rd=59 wr=43 db=56 ok
046 c2 UPD none t=46000010191 cas=12 rd=38 wr=40 db=43 ok
047 c0 GET none t=47000003329 cas=19 rd=67 wr=60 db=70 "v024-000024."/120
048 c1 GET none t=48000003329 cas=14 rd=61 wr=43 db=57 "v024-000024."/120
049 c2 GET none t=49000003329 cas=12 rd=40 wr=40 db=44 "v024-000024."/120
050 c0 UPD grow t=50000010124 cas=20 rd=68 wr=65 db=73 ok
051 c1 UPD grow t=51000010124 cas=15 rd=62 wr=48 db=60 ok
052 c2 UPD grow t=52000019925 cas=13 rd=46 wr=45 db=50 ok
053 c0 GET grow t=53000003321 cas=20 rd=70 wr=65 db=74 "v027-000027."/120
054 c1 GET grow t=54000003321 cas=15 rd=64 wr=48 db=61 "v027-000027."/120
055 c2 GET grow t=55000003257 cas=13 rd=48 wr=45 db=51 "v027-000027."/120
056 c0 UPD race t=56000010131 cas=21 rd=71 wr=70 db=77 ok
057 c1 UPD race t=57000010131 cas=16 rd=65 wr=53 db=64 ok
058 c2 UPD race t=58000010131 cas=14 rd=49 wr=50 db=54 ok
059 c0 GET race t=59000003257 cas=21 rd=73 wr=70 db=78 "v030-000030."/120
060 c1 GET race t=60000003257 cas=16 rd=67 wr=53 db=65 "v030-000030."/120
061 c2 GET race t=61000003257 cas=14 rd=51 wr=50 db=55 "v030-000030."/120
062 -- FailMN(2)
063 c0 GET pri  t=63000023165 cas=21 rd=80 wr=70 db=84 "v015-000015."/120
064 c0 UPD pri  t=64000033295 cas=22 rd=88 wr=74 db=93 ok
065 c1 UPD pri  t=65000016626 cas=17 rd=71 wr=56 db=70 ok
066 c2 UPD pri  t=66000016626 cas=15 rd=55 wr=53 db=60 ok
067 c2 UPD pri  t=67000016626 cas=16 rd=59 wr=56 db=65 ok
068 c1 UPD pri  t=68000016626 cas=18 rd=75 wr=59 db=75 ok
069 c0 UPD pri  t=69000016626 cas=23 rd=92 wr=77 db=98 ok
070 c0 GET pri  t=70000006563 cas=23 rd=95 wr=77 db=100 "v036-000036."/120
071 c1 GET pri  t=71000006563 cas=18 rd=78 wr=59 db=77 "v036-000036."/120
072 c2 GET pri  t=72000006563 cas=16 rd=62 wr=56 db=67 "v036-000036."/120
073 c0 GET bak  t=73000023165 cas=23 rd=102 wr=77 db=106 "v018-000018."/120
074 c0 UPD bak  t=74000033325 cas=24 rd=110 wr=81 db=115 ok
075 c1 UPD bak  t=75000019895 cas=19 rd=83 wr=62 db=83 ok
076 c2 UPD bak  t=76000019895 cas=17 rd=67 wr=59 db=73 ok
077 c2 UPD bak  t=77000010131 cas=18 rd=68 wr=62 db=76 ok
078 c1 UPD bak  t=78000010131 cas=20 rd=84 wr=65 db=86 ok
079 c0 UPD bak  t=79000010131 cas=25 rd=111 wr=84 db=118 ok
080 c0 GET bak  t=80000003257 cas=25 rd=113 wr=84 db=119 "v042-000042."/120
081 c1 GET bak  t=81000003257 cas=20 rd=86 wr=65 db=87 "v042-000042."/120
082 c2 GET bak  t=82000003257 cas=18 rd=70 wr=62 db=77 "v042-000042."/120
083 c0 GET cp0  t=83000023165 cas=25 rd=120 wr=84 db=125 "v021-000021."/120
084 c0 UPD cp0  t=84000033355 cas=26 rd=129 wr=90 db=134 ok
085 c1 UPD cp0  t=85000019985 cas=21 rd=92 wr=70 db=93 ok
086 c2 UPD cp0  t=86000019985 cas=19 rd=76 wr=67 db=83 ok
087 c2 UPD cp0  t=87000010191 cas=20 rd=77 wr=72 db=86 ok
088 c1 UPD cp0  t=88000010191 cas=22 rd=93 wr=75 db=96 ok
089 c0 UPD cp0  t=89000010191 cas=27 rd=130 wr=95 db=137 ok
090 c0 GET cp0  t=90000003257 cas=27 rd=132 wr=95 db=138 "v048-000048."/120
091 c1 GET cp0  t=91000003257 cas=22 rd=95 wr=75 db=97 "v048-000048."/120
092 c2 GET cp0  t=92000003257 cas=20 rd=79 wr=72 db=87 "v048-000048."/120
093 c0 GET none t=93000003329 cas=27 rd=134 wr=95 db=139 "v024-000024."/120
094 c0 UPD none t=94000010191 cas=28 rd=135 wr=100 db=142 ok
095 c1 UPD none t=95000010191 cas=23 rd=96 wr=80 db=100 ok
096 c2 UPD none t=96000010191 cas=21 rd=80 wr=77 db=90 ok
097 c2 UPD none t=97000010191 cas=22 rd=81 wr=82 db=93 ok
098 c1 UPD none t=98000010191 cas=24 rd=97 wr=85 db=103 ok
099 c0 UPD none t=99000010191 cas=29 rd=136 wr=105 db=145 ok
100 c0 GET none t=100000003329 cas=29 rd=138 wr=105 db=146 "v054-000054."/120
101 c1 GET none t=101000003329 cas=24 rd=99 wr=85 db=104 "v054-000054."/120
102 c2 GET none t=102000003329 cas=22 rd=83 wr=82 db=94 "v054-000054."/120
103 c0 GET grow t=103000023229 cas=29 rd=145 wr=105 db=152 "v027-000027."/120
104 c0 UPD grow t=104000033385 cas=30 rd=154 wr=111 db=161 ok
105 c1 UPD grow t=105000019989 cas=25 rd=105 wr=90 db=110 ok
106 c2 UPD grow t=106000019925 cas=23 rd=89 wr=87 db=100 ok
107 c2 UPD grow t=107000010131 cas=24 rd=90 wr=92 db=103 ok
108 c1 UPD grow t=108000010131 cas=26 rd=106 wr=95 db=113 ok
109 c0 UPD grow t=109000010131 cas=31 rd=155 wr=116 db=164 ok
110 c0 GET grow t=110000003257 cas=31 rd=157 wr=116 db=165 "v060-000060."/120
111 c1 GET grow t=111000003257 cas=26 rd=108 wr=95 db=114 "v060-000060."/120
112 c2 GET grow t=112000003257 cas=24 rd=92 wr=92 db=104 "v060-000060."/120
113 c0 GET race t=113000003257 cas=31 rd=159 wr=116 db=166 "v030-000030."/120
114 c0 UPD race t=114000010131 cas=32 rd=160 wr=119 db=169 ok
115 c1 UPD race t=115000010131 cas=27 rd=109 wr=98 db=117 ok
116 c2 UPD race t=116000010131 cas=25 rd=93 wr=95 db=107 ok
117 c2 UPD race t=117000010131 cas=26 rd=94 wr=98 db=110 ok
118 c1 UPD race t=118000010131 cas=28 rd=110 wr=101 db=120 ok
119 c0 UPD race t=119000010131 cas=33 rd=161 wr=122 db=172 ok
120 c0 GET race t=120000003257 cas=33 rd=163 wr=122 db=173 "v066-000066."/120
121 c1 GET race t=121000003257 cas=28 rd=112 wr=101 db=121 "v066-000066."/120
122 c2 GET race t=122000003257 cas=26 rd=96 wr=98 db=111 "v066-000066."/120
123 c0 GET del  t=123000003257 cas=33 rd=165 wr=122 db=174 notfound
124 c1 INS late t=124000053108 cas=30 rd=122 wr=107 db=133 ok
125 c2 GET late t=125000006691 cas=26 rd=99 wr=98 db=113 "v067-000067."/120
126 c2 UPD late t=126000016693 cas=27 rd=103 wr=101 db=118 ok
127 c1 GET late t=127000003257 cas=30 rd=124 wr=107 db=134 "v068-000068."/120
`
