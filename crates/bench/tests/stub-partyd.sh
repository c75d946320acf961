#!/bin/sh
# Stand-in for aft-partyd in tests/deployment.rs: speaks the supervisor's
# control protocol and, whatever the protocol would have decided, reports
# the canned output that --seed selects.
# Called as: --party <p> --stack <s> --seed <n> --scenario <spec>
case "$6" in
    1) out='maybe' ;;
    2) out='true false' ;;
    3) out='0+x+2' ;;
    4) out='0+1+99' ;;
    5) if [ "$2" = 2 ]; then out='1+2+3'; else out='0+1+2'; fi ;;
esac
echo 'ready 127.0.0.1:1'
read -r peers && echo meshed
read -r go && echo "output $out"
read -r shutdown && echo bye
